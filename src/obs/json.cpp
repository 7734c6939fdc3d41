#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <string_view>

namespace rbay::obs::json {

const Value* Value::find(const std::string& key) const {
  const auto it = fields.find(key);
  return it == fields.end() ? nullptr : &it->second;
}

std::int64_t Value::as_int() const {
  if (kind != Kind::Number) return 0;
  return integral ? integer : static_cast<std::int64_t>(number);
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool parse(Value& out, std::string& error) {
    if (value(out)) {
      skip_ws();
      if (pos_ == text_.size()) return true;
      fail("trailing garbage after JSON value");
    }
    error = error_ + " (at byte " + std::to_string(pos_) + ")";
    return false;
  }

 private:
  bool fail(const char* why) {
    if (error_.empty()) error_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  /// Skips whitespace, then consumes `c` if it is next.
  bool eat(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool value(Value& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        out.kind = Value::Kind::Object;
        return sequence('}', [&] {
          std::string key;
          skip_ws();
          if (pos_ >= text_.size() || text_[pos_] != '"' || !string(key)) {
            return fail("expected object key");
          }
          if (!eat(':')) return fail("expected ':'");
          Value v;
          if (!value(v)) return false;
          out.fields.emplace(std::move(key), std::move(v));
          return true;
        });
      case '[':
        out.kind = Value::Kind::Array;
        return sequence(']', [&] { return value(out.items.emplace_back()); });
      case '"':
        out.kind = Value::Kind::String;
        return string(out.string);
      case 't':
        out.kind = Value::Kind::Bool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::Bool;
        return literal("false");
      case 'n': return literal("null");
      default: return number(out);
    }
  }

  /// `element`s separated by ',' up to `close`; pos_ is on the opener.
  template <class Element>
  bool sequence(char close, const Element& element) {
    ++pos_;
    if (eat(close)) return true;
    do {
      if (!element()) return false;
    } while (eat(','));
    return eat(close) || fail("expected ',' or a closing bracket");
  }

  bool string(std::string& out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = pos_ < text_.size() ? text_[pos_++] : '\0';
      if (const auto i = kEscapes.find(e); i != std::string_view::npos) {
        out += kDecoded[i];
      } else if (e == 'u' && pos_ + 4 <= text_.size()) {
        out += '?';  // the exact code point matters to no reader
        pos_ += 4;
      } else {
        return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool number(Value& out) {
    static constexpr std::string_view kNumberChars = "+-.0123456789eE";
    const std::size_t start = pos_;
    while (pos_ < text_.size() && kNumberChars.find(text_[pos_]) != std::string_view::npos) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out.number = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size()) return fail("expected value");
    out.kind = Value::Kind::Number;
    out.integral = token.find_first_of(".eE") == std::string::npos;
    if (out.integral &&
        std::from_chars(token.data(), token.data() + token.size(), out.integer).ec != std::errc{}) {
      return fail("integer out of range");
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool parse(const std::string& text, Value& out, std::string& error) {
  return Parser{text}.parse(out, error);
}

}  // namespace rbay::obs::json
