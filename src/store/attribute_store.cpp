#include "store/attribute_store.hpp"

#include <set>

namespace rbay::store {

ActiveAttribute& AttributeStore::put(std::string name, AttributeValue value) {
  auto [it, inserted] = attrs_.insert_or_assign(name, ActiveAttribute{name, std::move(value)});
  (void)inserted;
  return it->second;
}

bool AttributeStore::remove(const std::string& name) { return attrs_.erase(name) > 0; }

const ActiveAttribute* AttributeStore::find(const std::string& name) const {
  auto it = attrs_.find(name);
  return it == attrs_.end() ? nullptr : &it->second;
}

ActiveAttribute* AttributeStore::find(const std::string& name) {
  auto it = attrs_.find(name);
  return it == attrs_.end() ? nullptr : &it->second;
}

void AttributeStore::update_value(const std::string& name, AttributeValue value) {
  auto it = attrs_.find(name);
  if (it == attrs_.end()) {
    put(name, std::move(value));
  } else {
    it->second.set_value(std::move(value));
  }
}

util::Result<void> AttributeStore::attach_handlers(const std::string& name,
                                                   const std::string& source) {
  auto compiled = aal::Chunk::compile(source);
  if (!compiled.ok()) return util::make_error(compiled.error());
  auto instance = aal::Script::instantiate(compiled.take());
  if (!instance.ok()) return util::make_error(instance.error());
  auto attr_it = attrs_.find(name);
  if (attr_it == attrs_.end()) {
    put(name, AttributeValue{false});
    attr_it = attrs_.find(name);
  }
  attr_it->second.share_script(instance.take());
  return {};
}

int AttributeStore::fire_timers() {
  int errors = 0;
  for (auto& [name, attr] : attrs_) {
    if (!attr.on_timer().ok()) ++errors;
  }
  return errors;
}

std::size_t AttributeStore::memory_footprint() const {
  std::size_t total = 48;
  std::set<const aal::Chunk*> seen;
  for (const auto& [name, attr] : attrs_) {
    total += 32 + name.size() + attr.value().wire_size();
    const auto& script = attr.script();
    if (script == nullptr) continue;
    // Private state per attribute; the compiled chunk is counted once.
    total += script->memory_footprint(/*include_chunk=*/false);
    if (seen.insert(script->chunk().get()).second) {
      total += script->chunk()->memory_footprint();
    }
  }
  return total;
}

}  // namespace rbay::store
