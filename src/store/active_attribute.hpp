#pragma once

// Active Attribute (AA): a resource attribute plus admin-written handlers.
//
// "Rather than treat a resource attribute as merely a key with a value,
// RBAY attaches each resource attribute a handler, which is procedural code
// written by admins and invoked at runtime" (§I).  The handler set is the
// paper's Table I: onGet, onSubscribe, onUnsubscribe, onDeliver, onTimer.

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "aal/script.hpp"
#include "store/attribute.hpp"
#include "util/result.hpp"

namespace rbay::store {

/// The five AA events (paper Table I).
struct AAEvent {
  static constexpr const char* kOnGet = "onGet";
  static constexpr const char* kOnSubscribe = "onSubscribe";
  static constexpr const char* kOnUnsubscribe = "onUnsubscribe";
  static constexpr const char* kOnDeliver = "onDeliver";
  static constexpr const char* kOnTimer = "onTimer";
};

class ActiveAttribute {
 public:
  ActiveAttribute() = default;
  ActiveAttribute(std::string name, AttributeValue value)
      : name_(std::move(name)), value_(std::move(value)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const AttributeValue& value() const { return value_; }
  void set_value(AttributeValue v) { value_ = std::move(v); }

  /// Attaches admin-written handler code.  Returns an error if the script
  /// fails to parse or its top-level chunk errors.
  util::Result<void> attach_handlers(const std::string& source);

  /// Installs a pre-built script instance (AttributeStore interning:
  /// attributes carrying the same admin policy share the compiled chunk
  /// while keeping private runtime state).
  void share_script(std::shared_ptr<aal::Script> script);

  /// Installs a clock: handlers see the global `now` (seconds, virtual
  /// time) refreshed before every invocation — time-gated policies like
  /// the paper's "available after 10 PM" read it directly.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }

  [[nodiscard]] bool has_handlers() const { return script_ != nullptr; }
  [[nodiscard]] bool has_handler(const std::string& event) const {
    return script_ != nullptr && script_->has_function(event);
  }
  [[nodiscard]] const std::shared_ptr<aal::Script>& script() const { return script_; }

  /// onGet(callerNode, payload) → value passed back to the caller.  If no
  /// handler is attached the attribute behaves passively: the get succeeds
  /// and returns the caller-visible value (true).  A handler error counts
  /// as a denial (fail-closed).
  util::Result<aal::Value> on_get(const std::string& caller, const aal::Value& payload);

  /// onSubscribe(callerNode, topic) → non-nil means "join the topic tree".
  /// Without a handler the default is to join.
  [[nodiscard]] bool on_subscribe(const std::string& caller, const std::string& topic);

  /// onUnsubscribe(callerNode, topic) → non-nil means "leave the tree".
  /// Without a handler the default is to stay.
  [[nodiscard]] bool on_unsubscribe(const std::string& caller, const std::string& topic);

  /// onDeliver(callerNode, payload) → non-nil return value replaces the
  /// attribute's value (admin-driven interactive management).
  util::Result<aal::Value> on_deliver(const std::string& caller, const aal::Value& payload);

  /// onTimer() — periodic maintenance hook; errors are swallowed (the
  /// sandbox terminated the handler) but reported.
  util::Result<void> on_timer();

  /// Bytes pinned by this attribute: name + value + handler state.  The
  /// Fig. 8c comparison is this number vs. a plain key-value entry.
  [[nodiscard]] std::size_t memory_footprint() const;

 private:
  /// Refreshes the sandbox-visible `value` and `now` globals.
  void sync_globals();

  std::string name_;
  AttributeValue value_;
  std::shared_ptr<aal::Script> script_;
  std::function<double()> clock_;
};

}  // namespace rbay::store
