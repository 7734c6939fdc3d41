#pragma once

// Minimal JSON helpers for the observability layer.  Emission is only what
// to_json() needs: integers, escaped strings, and comma bookkeeping.  No
// floating-point output — determinism of the snapshot depends on it.  The
// reader (parse) loads the files the repo's tools consume: exported Chrome
// traces (validate_chrome_trace) and time-series snapshots (rbay_top).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rbay::obs::json {

inline void append_int(std::string& out, std::int64_t v) { out += std::to_string(v); }
inline void append_uint(std::string& out, std::uint64_t v) { out += std::to_string(v); }

inline void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

inline void append_key(std::string& out, std::string_view key) {
  append_string(out, key);
  out += ':';
}

/// Writes `,` before every element but the first.
class Comma {
 public:
  void next(std::string& out) {
    if (!first_) out += ',';
    first_ = false;
  }

 private:
  bool first_ = true;
};

/// A parsed JSON value.  Object keys are kept sorted; a repeated key keeps
/// its first value.
struct Value {
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  /// The number was written without fraction or exponent; `integer` then
  /// holds it exactly.
  bool integral = false;
  std::int64_t integer = 0;
  std::string string;
  std::vector<Value> items;
  std::map<std::string, Value> fields;

  /// Field `key` of an object, or nullptr.
  [[nodiscard]] const Value* find(const std::string& key) const;
  /// The number truncated toward zero (0 for non-numbers).
  [[nodiscard]] std::int64_t as_int() const;
};

/// Parses `text` as one JSON value.  Returns false and fills `error` (with
/// the byte offset) on malformed input.  `\u` escapes decode to '?'.
[[nodiscard]] bool parse(const std::string& text, Value& out, std::string& error);

}  // namespace rbay::obs::json
