#include "store/active_attribute.hpp"

namespace rbay::store {

void ActiveAttribute::sync_globals() {
  script_->set_global("value", value_.to_aal());
  if (clock_) script_->set_global("now", aal::Value::number(clock_()));
}

}  // namespace rbay::store

namespace rbay::store {

util::Result<void> ActiveAttribute::attach_handlers(const std::string& source) {
  auto loaded = aal::Script::load(source);
  if (!loaded.ok()) return util::make_error(loaded.error());
  script_ = loaded.take();
  // Mirror the attribute's current value into the sandbox so handlers can
  // reference it as `value`.
  script_->set_global("value", value_.to_aal());
  return {};
}

void ActiveAttribute::share_script(std::shared_ptr<aal::Script> script) {
  script_ = std::move(script);
  if (script_) script_->set_global("value", value_.to_aal());
}

util::Result<aal::Value> ActiveAttribute::on_get(const std::string& caller,
                                                 const aal::Value& payload) {
  if (!has_handler(AAEvent::kOnGet)) {
    return aal::Value::boolean(true);  // passive attribute: get succeeds
  }
  sync_globals();
  auto result = script_->call(AAEvent::kOnGet, {aal::Value::string(caller), payload});
  if (!result.ok()) return util::make_error(result.error());
  return result.take();
}

bool ActiveAttribute::on_subscribe(const std::string& caller, const std::string& topic) {
  if (!has_handler(AAEvent::kOnSubscribe)) return true;
  sync_globals();
  auto result = script_->call(AAEvent::kOnSubscribe,
                              {aal::Value::string(caller), aal::Value::string(topic)});
  // Fail-closed: a crashed policy handler hides the resource.
  return result.ok() && !result.value().is_nil();
}

bool ActiveAttribute::on_unsubscribe(const std::string& caller, const std::string& topic) {
  if (!has_handler(AAEvent::kOnUnsubscribe)) return false;
  sync_globals();
  auto result = script_->call(AAEvent::kOnUnsubscribe,
                              {aal::Value::string(caller), aal::Value::string(topic)});
  return result.ok() && !result.value().is_nil();
}

util::Result<aal::Value> ActiveAttribute::on_deliver(const std::string& caller,
                                                     const aal::Value& payload) {
  if (!has_handler(AAEvent::kOnDeliver)) return aal::Value::nil();
  sync_globals();
  auto result = script_->call(AAEvent::kOnDeliver, {aal::Value::string(caller), payload});
  if (!result.ok()) return util::make_error(result.error());
  if (!result.value().is_nil()) {
    value_ = AttributeValue::from_aal(result.value());
  }
  return result.take();
}

util::Result<void> ActiveAttribute::on_timer() {
  if (!has_handler(AAEvent::kOnTimer)) return {};
  sync_globals();
  auto result = script_->call(AAEvent::kOnTimer, {});
  if (!result.ok()) return util::make_error(result.error());
  return {};
}

std::size_t ActiveAttribute::memory_footprint() const {
  std::size_t total = 32 + name_.size() + value_.wire_size();
  if (script_) total += script_->memory_footprint();
  return total;
}

}  // namespace rbay::store
