#pragma once

// AAL runtime values.
//
// The paper: "Lua technically only has one data structure, a table.  RBAY
// represents AAs as Lua tables that encapsulate both persistent state and
// the handlers to be invoked on that state."  The value model is nil,
// boolean, number, string, table (identity semantics), closure, and native
// (host-provided) function.  Table iteration order is deterministic
// (ordered map), which keeps whole-federation simulations reproducible.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <variant>
#include <vector>

namespace rbay::aal {

struct FuncBody;
class Value;
struct Table;
struct Closure;
class Interp;

using TablePtr = std::shared_ptr<Table>;
using ClosurePtr = std::shared_ptr<Closure>;

/// Host function: receives evaluated arguments, returns result values.
/// Reports errors by throwing RuntimeError (caught at the call boundary).
using NativeFn = std::function<std::vector<Value>(Interp&, std::vector<Value>&)>;
using NativePtr = std::shared_ptr<NativeFn>;

class Value {
 public:
  using Storage =
      std::variant<std::monostate, bool, double, std::string, TablePtr, ClosurePtr, NativePtr>;

  Value() = default;
  static Value nil() { return Value{}; }
  static Value boolean(bool b) { return Value{Storage{b}}; }
  static Value number(double d) { return Value{Storage{d}}; }
  static Value string(std::string s) { return Value{Storage{std::move(s)}}; }
  static Value table(TablePtr t) { return Value{Storage{std::move(t)}}; }
  static Value closure(ClosurePtr c) { return Value{Storage{std::move(c)}}; }
  static Value native(NativeFn fn);

  [[nodiscard]] bool is_nil() const { return std::holds_alternative<std::monostate>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_table() const { return std::holds_alternative<TablePtr>(v_); }
  [[nodiscard]] bool is_closure() const { return std::holds_alternative<ClosurePtr>(v_); }
  [[nodiscard]] bool is_native() const { return std::holds_alternative<NativePtr>(v_); }
  [[nodiscard]] bool is_callable() const { return is_closure() || is_native(); }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] double as_number() const { return std::get<double>(v_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(v_); }
  [[nodiscard]] const TablePtr& as_table() const { return std::get<TablePtr>(v_); }
  [[nodiscard]] const ClosurePtr& as_closure() const { return std::get<ClosurePtr>(v_); }
  [[nodiscard]] const NativePtr& as_native() const { return std::get<NativePtr>(v_); }

  /// Lua truthiness: everything but nil and false is true.
  [[nodiscard]] bool truthy() const {
    if (is_nil()) return false;
    if (is_bool()) return as_bool();
    return true;
  }

  /// Lua type name: nil/boolean/number/string/table/function.
  [[nodiscard]] const char* type_name() const;

  /// Lua equality: same type and value; tables/functions by identity.
  [[nodiscard]] bool equals(const Value& o) const;

  /// Render as Lua's tostring would (numbers lose a trailing ".0").
  [[nodiscard]] std::string to_display_string() const;

  /// Approximate bytes of heap this value pins (cycle-safe) — the metric
  /// behind the paper's Fig. 8c memory comparison.
  [[nodiscard]] std::size_t footprint() const;

 private:
  explicit Value(Storage v) : v_(std::move(v)) {}

  std::size_t footprint_inner(std::unordered_set<const void*>& seen) const;

  Storage v_;
};

/// Table keys: booleans, numbers, or strings (a practical Lua subset).
/// Ordered for deterministic iteration.
using TableKey = std::variant<bool, double, std::string>;

struct Table {
  std::map<TableKey, Value> entries;

  [[nodiscard]] Value get(const TableKey& key) const {
    auto it = entries.find(key);
    return it == entries.end() ? Value::nil() : it->second;
  }

  void set(const TableKey& key, Value value) {
    if (value.is_nil()) {
      entries.erase(key);
    } else {
      entries[key] = std::move(value);
    }
  }

  /// Lua's '#': count of consecutive integer keys from 1.
  [[nodiscard]] std::size_t sequence_length() const;
};

/// Lexical environment (scope chain).  A script's global scope also points
/// at the process-wide stdlib scope, which a global read falls back to on a
/// miss.  The stdlib is deliberately not a `parent`: code that walks or
/// clears scope chains never reaches it.
struct Env {
  std::shared_ptr<Env> parent;
  std::map<std::string, Value> vars;
  const Env* stdlib = nullptr;
};
using EnvPtr = std::shared_ptr<Env>;

struct Closure {
  std::shared_ptr<FuncBody> body;
  EnvPtr env;
};

/// Error thrown during AAL execution; caught at the Script::call boundary
/// and surfaced as a Result error, never across the host API.
struct RuntimeError {
  std::string message;
  int line = 0;
};

/// Converts a Value usable as a table key; throws RuntimeError otherwise.
TableKey to_key(const Value& v, int line);

std::string number_to_string(double d);

}  // namespace rbay::aal
