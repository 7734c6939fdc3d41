#include "query/sql.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <utility>

namespace rbay::query {

const char* compare_op_name(CompareOp op) {
  switch (op) {
    case CompareOp::Eq: return "=";
    case CompareOp::NotEq: return "!=";
    case CompareOp::Less: return "<";
    case CompareOp::LessEq: return "<=";
    case CompareOp::Greater: return ">";
    case CompareOp::GreaterEq: return ">=";
  }
  return "?";
}

namespace {

int compare_values(const store::AttributeValue& a, const store::AttributeValue& b, bool& ok) {
  ok = true;
  double na = 0, nb = 0;
  if (a.numeric(na) && b.numeric(nb)) {
    return na < nb ? -1 : (na > nb ? 1 : 0);
  }
  if (a.is_string() && b.is_string()) {
    const int c = a.as_string().compare(b.as_string());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  ok = false;
  return 0;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_word_start(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'; }
bool is_word_char(char c) { return is_word_start(c) || is_digit(c) || c == '.'; }
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }  // C-locale isspace

/// Quoted so it re-lexes as one string token: a string can hold one quote
/// character or the other, never both (strings have no escapes).
void append_quoted(std::string& out, std::string_view s) {
  const char quote = s.find('"') == std::string_view::npos ? '"' : '\'';
  out.append(1, quote).append(s).append(1, quote);
}

/// Writes a literal the lexer reads back as the same value: strings quoted
/// (so "5" and "true" stay strings), doubles in the shortest fixed form that
/// round-trips (the lexer has no exponents).
void append_literal(std::string& out, const store::AttributeValue& v) {
  if (v.is_string()) {
    append_quoted(out, v.as_string());
  } else if (v.is_double() && std::isinf(v.as_double())) {
    out.append(310, '9');  // a digit run past DBL_MAX reads as infinity
  } else if (v.is_double()) {
    char buf[400];  // DBL_MAX has 309 digits, the least denormal 324 decimals
    const auto end = std::to_chars(buf, buf + sizeof buf, v.as_double(), std::chars_format::fixed);
    out.append(buf, end.ptr);
  } else {
    out += v.to_string();
  }
}

struct SqlToken {
  enum Kind { Word, Number, String, Op, Star, Comma, Semicolon, Percent, End, Error } kind = End;
  std::string_view text{};  // a view into the query (an operator's canonical spelling)
  double number = 0.0;
  CompareOp op = CompareOp::Eq;
};

/// The double strtod reads from a digit run, bit for bit (tree names hash
/// the canonical literal), without strtod's copy and locale lookup.
double parse_number(std::string_view digits) {
  double v = 0.0;
  if (std::from_chars(digits.data(), digits.data() + digits.size(), v).ec == std::errc{}) return v;
  return std::strtod(std::string(digits).c_str(), nullptr);  // out of range: inf or underflow
}

/// ASCII case-insensitive match against an upper-case keyword.
bool is_keyword(std::string_view word, std::string_view kw) {
  return word.size() == kw.size() &&
         std::equal(word.begin(), word.end(), kw.begin(), [](char w, char k) {
           return (w >= 'a' && w <= 'z' ? static_cast<char>(w - 'a' + 'A') : w) == k;
         });
}

/// Recursive-descent parser over a one-token lookahead lexed in place:
/// tokens are views into the query text, nothing is copied until a field
/// of the Query takes it.
class SqlParser {
 public:
  explicit SqlParser(std::string_view src) : src_(src) { tok_ = lex(); }

  util::Result<Query> run() {
    Query q;
    if (!keyword("SELECT")) return util::make_error("query must start with SELECT");
    if (tok_.kind == SqlToken::Number) {
      // A count past int range is refused too: the cast would be undefined.
      const double k = next().number;
      if (!(k >= 1 && k < 2147483648.0)) return util::make_error("SELECT count must be >= 1");
      if (k != std::floor(k)) return util::make_error("SELECT count must be a whole number");
      q.k = static_cast<int>(k);
    } else if (keyword("COUNT")) {
      q.count_only = true;  // answered from the tree roots' aggregates, no anycast
    } else if (!accept(SqlToken::Star) && !accept(SqlToken::Word)) {
      // `SELECT NodeId` / `SELECT *` both mean "one server" (k = 1).
      return util::make_error("expected count, column, or * after SELECT");
    }

    if (!keyword("FROM")) return util::make_error("expected FROM");
    if (!accept(SqlToken::Star)) {
      const char* missing = "expected * or site list after FROM";
      do {
        if (tok_.kind != SqlToken::Word && tok_.kind != SqlToken::String) {
          return util::make_error(missing);
        }
        q.sites.emplace_back(next().text);
        missing = "expected site name after ','";
      } while (accept(SqlToken::Comma));
    }

    if (keyword("WHERE")) {
      do {
        Predicate p;
        if (tok_.kind != SqlToken::Word) return util::make_error("expected attribute name");
        p.attribute = next().text;
        if (tok_.kind != SqlToken::Op) return util::make_error("expected comparison operator");
        p.op = next().op;
        // Literal: number (optionally a percentage), boolean word, string,
        // or bare word (WHERE OS = Ubuntu).
        if (tok_.kind == SqlToken::Number) {
          const double v = next().number;
          // `10%` → 0.1, matching CPU_utilization's [0, 1] scale
          p.literal = store::AttributeValue{accept(SqlToken::Percent) ? v / 100.0 : v};
        } else if (keyword("TRUE")) {
          p.literal = store::AttributeValue{true};
        } else if (keyword("FALSE")) {
          p.literal = store::AttributeValue{false};
        } else if (tok_.kind == SqlToken::String || tok_.kind == SqlToken::Word) {
          p.literal = store::AttributeValue{std::string(next().text)};
        } else {
          return util::make_error("expected literal after operator");
        }
        q.predicates.push_back(std::move(p));
      } while (keyword("AND"));
    }

    bool group = keyword("GROUPBY");
    if (!group && keyword("GROUP")) {
      if (!keyword("BY")) return util::make_error("expected BY after GROUP");
      group = true;
    }
    if (group) {
      if (tok_.kind != SqlToken::Word) return util::make_error("expected attribute after GROUPBY");
      q.group_by = std::string(next().text);
      q.descending = keyword("DESC");
      if (!q.descending) keyword("ASC");
    }

    if (keyword("WITH")) {
      if (tok_.kind != SqlToken::String) return util::make_error("expected string after WITH");
      q.payload = next().text;
    }

    while (accept(SqlToken::Semicolon)) {
    }
    if (tok_.kind != SqlToken::End) {
      return util::make_error(std::string("unexpected trailing token '").append(tok_.text) + "'");
    }
    return q;
  }

  /// Lexes what the parse left unread and returns the lexer's error, if
  /// any: a lexer error anywhere in the text beats a parse error before it.
  const std::string& lex_rest() {
    while (tok_.kind != SqlToken::End && tok_.kind != SqlToken::Error) tok_ = lex();
    return lex_error_;
  }

 private:
  SqlToken next() { return std::exchange(tok_, lex()); }
  bool accept(SqlToken::Kind kind) {
    if (tok_.kind != kind) return false;
    next();
    return true;
  }
  bool keyword(std::string_view kw) {
    return tok_.kind == SqlToken::Word && is_keyword(tok_.text, kw) && accept(SqlToken::Word);
  }

  SqlToken lex() {
    while (pos_ < src_.size() && is_space(src_[pos_])) ++pos_;
    if (!lex_error_.empty()) return {SqlToken::Error};
    if (pos_ == src_.size()) return {SqlToken::End};
    const std::size_t start = pos_;
    const char c = src_[pos_++];
    auto run = [&](auto in_run) {
      while (pos_ < src_.size() && in_run(src_[pos_])) ++pos_;
      return src_.substr(start, pos_ - start);
    };
    if (is_word_start(c)) return {SqlToken::Word, run(is_word_char)};
    if (is_digit(c) || (c == '.' && pos_ < src_.size() && is_digit(src_[pos_]))) {
      const auto digits = run([](char ch) { return is_digit(ch) || ch == '.'; });
      if (std::count(digits.begin(), digits.end(), '.') > 1) {
        return fail(std::string("malformed number '").append(digits) + "' in query");
      }
      return {SqlToken::Number, digits, parse_number(digits)};
    }
    if (c == '"' || c == '\'') {
      const auto close = src_.find(c, pos_);
      if (close == std::string_view::npos) return fail("unterminated string in query");
      pos_ = close + 1;
      return {SqlToken::String, src_.substr(start + 1, close - start - 1)};
    }
    auto op = [&](CompareOp o, std::size_t length) {
      pos_ = start + length;
      return SqlToken{SqlToken::Op, compare_op_name(o), 0.0, o};
    };
    const char after = pos_ < src_.size() ? src_[pos_] : '\0';
    switch (c) {
      case '*': return {SqlToken::Star, "*"};
      case ',': return {SqlToken::Comma, ","};
      case ';': return {SqlToken::Semicolon, ";"};
      case '%': return {SqlToken::Percent, "%"};
      case '=': return op(CompareOp::Eq, 1);
      case '!': return after == '=' ? op(CompareOp::NotEq, 2) : fail("unexpected '!' in query");
      case '<':
        if (after == '=') return op(CompareOp::LessEq, 2);
        return after == '>' ? op(CompareOp::NotEq, 2) : op(CompareOp::Less, 1);
      case '>': return after == '=' ? op(CompareOp::GreaterEq, 2) : op(CompareOp::Greater, 1);
      default: return fail(std::string("unexpected character '") + c + "' in query");
    }
  }

  SqlToken fail(std::string message) {
    lex_error_ = std::move(message);
    return {SqlToken::Error};
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::string lex_error_;
  SqlToken tok_;
};

}  // namespace

bool Predicate::matches(const store::AttributeValue& value) const {
  bool comparable = false;
  const int cmp = compare_values(value, literal, comparable);
  if (!comparable) {
    // Type-incompatible values only satisfy "not equal".
    return op == CompareOp::NotEq;
  }
  switch (op) {
    case CompareOp::Eq: return cmp == 0;
    case CompareOp::NotEq: return cmp != 0;
    case CompareOp::Less: return cmp < 0;
    case CompareOp::LessEq: return cmp <= 0;
    case CompareOp::Greater: return cmp > 0;
    case CompareOp::GreaterEq: return cmp >= 0;
  }
  return false;
}

std::string Predicate::canonical() const {
  return attribute + compare_op_name(op) + literal.to_string();
}

std::string Query::to_string() const {
  std::string out = "SELECT ";
  out += count_only ? "COUNT" : std::to_string(k);
  out += " FROM ";
  if (sites.empty()) out += '*';
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (i > 0) out += ", ";
    append_quoted(out, sites[i]);
  }
  for (std::size_t i = 0; i < predicates.size(); ++i) {
    out.append(i == 0 ? " WHERE " : " AND ").append(predicates[i].attribute);
    out.append(" ").append(compare_op_name(predicates[i].op)).append(" ");
    append_literal(out, predicates[i].literal);
  }
  if (group_by) out.append(" GROUPBY ").append(*group_by).append(descending ? " DESC" : " ASC");
  if (!payload.empty()) append_quoted(out.append(" WITH "), payload);
  return out;
}

util::Result<Query> parse_query(std::string_view sql) {
  SqlParser parser{sql};
  auto q = parser.run();
  if (!q.ok() && !parser.lex_rest().empty()) return util::make_error(parser.lex_rest());
  return q;
}

}  // namespace rbay::query
