#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "aal/interp.hpp"
#include "aal/pattern.hpp"
#include "util/sha1.hpp"

// The restricted AAL standard library (§III.B): "core libraries relating to
// kernel access, file system access, network access are excluded from the
// executing environment.  As a result, handlers can only do simple math,
// string, and table manipulation."

namespace rbay::aal {

namespace {

Value make_native(std::vector<Value> (*fn)(Interp&, std::vector<Value>&)) {
  return Value::native(NativeFn{fn});
}

Value arg_or_nil(const std::vector<Value>& args, std::size_t i) {
  return i < args.size() ? args[i] : Value::nil();
}

double arg_number(const std::vector<Value>& args, std::size_t i, const char* fname) {
  const Value v = arg_or_nil(args, i);
  if (v.is_number()) return v.as_number();
  if (v.is_string()) {
    char* end = nullptr;
    const double d = std::strtod(v.as_string().c_str(), &end);
    if (end != v.as_string().c_str() && *end == '\0') return d;
  }
  throw RuntimeError{std::string("bad argument #") + std::to_string(i + 1) + " to '" + fname +
                         "' (number expected, got " + v.type_name() + ")",
                     0};
}

std::string arg_string(const std::vector<Value>& args, std::size_t i, const char* fname) {
  const Value v = arg_or_nil(args, i);
  if (v.is_string()) return v.as_string();
  if (v.is_number()) return number_to_string(v.as_number());
  throw RuntimeError{std::string("bad argument #") + std::to_string(i + 1) + " to '" + fname +
                         "' (string expected, got " + v.type_name() + ")",
                     0};
}

TablePtr arg_table(const std::vector<Value>& args, std::size_t i, const char* fname) {
  const Value v = arg_or_nil(args, i);
  if (v.is_table()) return v.as_table();
  throw RuntimeError{std::string("bad argument #") + std::to_string(i + 1) + " to '" + fname +
                         "' (table expected, got " + v.type_name() + ")",
                     0};
}

// --- basic functions ---------------------------------------------------------

std::vector<Value> builtin_type(Interp&, std::vector<Value>& args) {
  return {Value::string(arg_or_nil(args, 0).type_name())};
}

std::vector<Value> builtin_tostring(Interp&, std::vector<Value>& args) {
  return {Value::string(arg_or_nil(args, 0).to_display_string())};
}

std::vector<Value> builtin_tonumber(Interp&, std::vector<Value>& args) {
  const Value v = arg_or_nil(args, 0);
  if (v.is_number()) return {v};
  if (v.is_string()) {
    char* end = nullptr;
    const double d = std::strtod(v.as_string().c_str(), &end);
    if (end != v.as_string().c_str() && *end == '\0') return {Value::number(d)};
  }
  return {Value::nil()};
}

std::vector<Value> builtin_error(Interp&, std::vector<Value>& args) {
  throw RuntimeError{arg_or_nil(args, 0).to_display_string(), 0};
}

std::vector<Value> builtin_assert(Interp&, std::vector<Value>& args) {
  if (!arg_or_nil(args, 0).truthy()) {
    const Value msg = arg_or_nil(args, 1);
    throw RuntimeError{msg.is_nil() ? "assertion failed!" : msg.to_display_string(), 0};
  }
  return args;
}

std::vector<Value> builtin_print(Interp& interp, std::vector<Value>& args) {
  std::string line;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) line += '\t';
    line += args[i].to_display_string();
  }
  interp.capture_print(std::move(line));
  return {};
}

// next(t, key): the stateless iterator behind pairs().
std::vector<Value> builtin_next(Interp&, std::vector<Value>& args) {
  const TablePtr t = arg_table(args, 0, "next");
  const Value key = arg_or_nil(args, 1);
  auto it = t->entries.begin();
  if (!key.is_nil()) {
    it = t->entries.find(to_key(key, 0));
    if (it == t->entries.end()) {
      throw RuntimeError{"invalid key to 'next'", 0};
    }
    ++it;
  }
  if (it == t->entries.end()) return {Value::nil()};
  Value k = std::visit(
      [](const auto& v) -> Value {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>) return Value::boolean(v);
        else if constexpr (std::is_same_v<T, double>) return Value::number(v);
        else return Value::string(v);
      },
      it->first);
  return {std::move(k), it->second};
}

std::vector<Value> builtin_pairs(Interp&, std::vector<Value>& args) {
  const TablePtr t = arg_table(args, 0, "pairs");
  return {make_native(builtin_next), Value::table(t), Value::nil()};
}

// ipairs iterator: walks 1..n until the first nil.
std::vector<Value> ipairs_iter(Interp&, std::vector<Value>& args) {
  const TablePtr t = arg_table(args, 0, "ipairs");
  const double i = arg_number(args, 1, "ipairs") + 1.0;
  Value v = t->get(TableKey{i});
  if (v.is_nil()) return {Value::nil()};
  return {Value::number(i), std::move(v)};
}

std::vector<Value> builtin_ipairs(Interp&, std::vector<Value>& args) {
  const TablePtr t = arg_table(args, 0, "ipairs");
  return {make_native(ipairs_iter), Value::table(t), Value::number(0)};
}

std::vector<Value> builtin_select(Interp&, std::vector<Value>& args) {
  const Value sel = arg_or_nil(args, 0);
  if (sel.is_string() && sel.as_string() == "#") {
    return {Value::number(static_cast<double>(args.size() - 1))};
  }
  const auto n = static_cast<std::size_t>(arg_number(args, 0, "select"));
  if (n < 1) throw RuntimeError{"bad argument #1 to 'select' (index out of range)", 0};
  std::vector<Value> out;
  for (std::size_t i = n; i < args.size(); ++i) out.push_back(args[i]);
  return out;
}

// --- math --------------------------------------------------------------------

template <double (*Fn)(double)>
std::vector<Value> math_unary(Interp&, std::vector<Value>& args) {
  return {Value::number(Fn(arg_number(args, 0, "math")))};
}

std::vector<Value> math_max(Interp&, std::vector<Value>& args) {
  if (args.empty()) throw RuntimeError{"math.max needs at least one argument", 0};
  double best = arg_number(args, 0, "max");
  for (std::size_t i = 1; i < args.size(); ++i) best = std::max(best, arg_number(args, i, "max"));
  return {Value::number(best)};
}

std::vector<Value> math_min(Interp&, std::vector<Value>& args) {
  if (args.empty()) throw RuntimeError{"math.min needs at least one argument", 0};
  double best = arg_number(args, 0, "min");
  for (std::size_t i = 1; i < args.size(); ++i) best = std::min(best, arg_number(args, i, "min"));
  return {Value::number(best)};
}

std::vector<Value> math_fmod(Interp&, std::vector<Value>& args) {
  return {Value::number(std::fmod(arg_number(args, 0, "fmod"), arg_number(args, 1, "fmod")))};
}

std::vector<Value> math_pow(Interp&, std::vector<Value>& args) {
  return {Value::number(std::pow(arg_number(args, 0, "pow"), arg_number(args, 1, "pow")))};
}

// --- string ------------------------------------------------------------------

// Lua string indices are 1-based; negative indices count from the end.
std::size_t norm_index(double i, std::size_t len, bool is_end) {
  if (i < 0) i = static_cast<double>(len) + i + 1;
  if (i < 1) i = is_end ? 0 : 1;
  if (i > static_cast<double>(len)) i = static_cast<double>(len) + (is_end ? 0 : 1);
  return static_cast<std::size_t>(i);
}

std::vector<Value> string_len(Interp&, std::vector<Value>& args) {
  return {Value::number(static_cast<double>(arg_string(args, 0, "len").size()))};
}

std::vector<Value> string_sub(Interp&, std::vector<Value>& args) {
  const std::string s = arg_string(args, 0, "sub");
  const double from_raw = arg_number(args, 1, "sub");
  const double to_raw = args.size() > 2 ? arg_number(args, 2, "sub") : -1.0;
  const std::size_t from = norm_index(from_raw, s.size(), false);
  const std::size_t to = norm_index(to_raw, s.size(), true);
  if (from > to || from > s.size()) return {Value::string("")};
  return {Value::string(s.substr(from - 1, to - from + 1))};
}

std::vector<Value> string_upper(Interp&, std::vector<Value>& args) {
  std::string s = arg_string(args, 0, "upper");
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return {Value::string(std::move(s))};
}

std::vector<Value> string_lower(Interp&, std::vector<Value>& args) {
  std::string s = arg_string(args, 0, "lower");
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return {Value::string(std::move(s))};
}

std::vector<Value> string_rep(Interp&, std::vector<Value>& args) {
  const std::string s = arg_string(args, 0, "rep");
  const auto n = static_cast<long>(arg_number(args, 1, "rep"));
  if (n > 0 && s.size() * static_cast<std::size_t>(n) > 1 << 20) {
    throw RuntimeError{"string.rep result too large for sandbox", 0};
  }
  std::string out;
  for (long i = 0; i < n; ++i) out += s;
  return {Value::string(std::move(out))};
}

std::vector<Value> string_reverse(Interp&, std::vector<Value>& args) {
  std::string s = arg_string(args, 0, "reverse");
  std::reverse(s.begin(), s.end());
  return {Value::string(std::move(s))};
}

Pattern compile_or_throw(const std::string& pattern, const char* fname) {
  try {
    return Pattern::compile(pattern);
  } catch (const PatternError& e) {
    throw RuntimeError{std::string(fname) + ": " + e.message, 0};
  }
}

std::optional<MatchResult> find_or_throw(const Pattern& pattern, const std::string& subject,
                                         std::size_t init, const char* fname) {
  try {
    return pattern.find(subject, init);
  } catch (const PatternError& e) {
    throw RuntimeError{std::string(fname) + ": " + e.message, 0};
  }
}

/// Match results follow Lua: captures if the pattern has any, otherwise
/// the whole matched substring.
std::vector<Value> capture_values(const std::string& subject, const MatchResult& m) {
  std::vector<Value> out;
  if (m.captures.empty()) {
    out.push_back(Value::string(subject.substr(m.start, m.end - m.start)));
  } else {
    for (const auto& cap : m.captures) out.push_back(Value::string(cap));
  }
  return out;
}

/// string.find(s, pattern [, init [, plain]]): 1-based start,end plus any
/// captures; with plain=true a literal substring search.
std::vector<Value> string_find(Interp&, std::vector<Value>& args) {
  const std::string s = arg_string(args, 0, "find");
  const std::string pat = arg_string(args, 1, "find");
  std::size_t init = 1;
  if (args.size() > 2 && !args[2].is_nil()) {
    init = norm_index(arg_number(args, 2, "find"), s.size(), false);
  }
  if (init > s.size() + 1) return {Value::nil()};
  const bool plain = args.size() > 3 && args[3].truthy();
  if (plain) {
    const auto pos = s.find(pat, init - 1);
    if (pos == std::string::npos) return {Value::nil()};
    return {Value::number(static_cast<double>(pos + 1)),
            Value::number(static_cast<double>(pos + pat.size()))};
  }
  const auto compiled = compile_or_throw(pat, "find");
  const auto m = find_or_throw(compiled, s, init - 1, "find");
  if (!m) return {Value::nil()};
  std::vector<Value> out = {Value::number(static_cast<double>(m->start + 1)),
                            Value::number(static_cast<double>(m->end))};
  for (const auto& cap : m->captures) out.push_back(Value::string(cap));
  return out;
}

/// string.match(s, pattern [, init]).
std::vector<Value> string_match(Interp&, std::vector<Value>& args) {
  const std::string s = arg_string(args, 0, "match");
  const std::string pat = arg_string(args, 1, "match");
  std::size_t init = 1;
  if (args.size() > 2 && !args[2].is_nil()) {
    init = norm_index(arg_number(args, 2, "match"), s.size(), false);
  }
  if (init > s.size() + 1) return {Value::nil()};
  const auto compiled = compile_or_throw(pat, "match");
  const auto m = find_or_throw(compiled, s, init - 1, "match");
  if (!m) return {Value::nil()};
  return capture_values(s, *m);
}

/// string.gmatch(s, pattern): stateful iterator over successive matches.
std::vector<Value> string_gmatch(Interp&, std::vector<Value>& args) {
  auto subject = std::make_shared<std::string>(arg_string(args, 0, "gmatch"));
  auto pattern = std::make_shared<Pattern>(
      compile_or_throw(arg_string(args, 1, "gmatch"), "gmatch"));
  auto pos = std::make_shared<std::size_t>(0);
  NativeFn iter = [subject, pattern, pos](Interp&, std::vector<Value>&) -> std::vector<Value> {
    while (*pos <= subject->size()) {
      const auto m = find_or_throw(*pattern, *subject, *pos, "gmatch");
      if (!m) break;
      *pos = m->end > m->start ? m->end : m->start + 1;  // guarantee progress
      return capture_values(*subject, *m);
    }
    return {Value::nil()};
  };
  return {Value::native(std::move(iter))};
}

/// string.gsub(s, pattern, replacement [, n]) with a string replacement
/// (%0..%9 expansion); returns the result and the replacement count.
std::vector<Value> string_gsub(Interp&, std::vector<Value>& args) {
  const std::string s = arg_string(args, 0, "gsub");
  const std::string pat = arg_string(args, 1, "gsub");
  const std::string repl = arg_string(args, 2, "gsub");
  std::size_t max = SIZE_MAX;
  if (args.size() > 3 && !args[3].is_nil()) {
    const double n = arg_number(args, 3, "gsub");
    max = n <= 0 ? 0 : static_cast<std::size_t>(n);
  }
  const auto compiled = compile_or_throw(pat, "gsub");
  try {
    auto [result, count] = compiled.gsub(s, repl, max);
    return {Value::string(std::move(result)), Value::number(count)};
  } catch (const PatternError& e) {
    throw RuntimeError{"gsub: " + e.message, 0};
  }
}

std::vector<Value> string_byte(Interp&, std::vector<Value>& args) {
  const std::string s = arg_string(args, 0, "byte");
  const std::size_t i = args.size() > 1 ? norm_index(arg_number(args, 1, "byte"), s.size(), false) : 1;
  if (i < 1 || i > s.size()) return {Value::nil()};
  return {Value::number(static_cast<double>(static_cast<unsigned char>(s[i - 1])))};
}

std::vector<Value> string_char(Interp&, std::vector<Value>& args) {
  std::string out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    out += static_cast<char>(static_cast<int>(arg_number(args, i, "char")));
  }
  return {Value::string(std::move(out))};
}

/// Minimal string.format: %d %s %f %g %x %% with no width modifiers needed
/// by the policy handlers; unknown verbs raise an error.
std::vector<Value> string_format(Interp&, std::vector<Value>& args) {
  const std::string fmt = arg_string(args, 0, "format");
  std::string out;
  std::size_t arg_idx = 1;
  for (std::size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') {
      out += fmt[i];
      continue;
    }
    if (i + 1 >= fmt.size()) throw RuntimeError{"invalid format string", 0};
    const char verb = fmt[++i];
    char buf[64];
    switch (verb) {
      case '%': out += '%'; break;
      case 'd':
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(arg_number(args, arg_idx++, "format")));
        out += buf;
        break;
      case 'f':
        std::snprintf(buf, sizeof buf, "%f", arg_number(args, arg_idx++, "format"));
        out += buf;
        break;
      case 'g':
        std::snprintf(buf, sizeof buf, "%.14g", arg_number(args, arg_idx++, "format"));
        out += buf;
        break;
      case 'x':
        std::snprintf(buf, sizeof buf, "%llx",
                      static_cast<unsigned long long>(arg_number(args, arg_idx++, "format")));
        out += buf;
        break;
      case 's': out += arg_string(args, arg_idx++, "format"); break;
      default: throw RuntimeError{std::string("unsupported format verb '%") + verb + "'", 0};
    }
  }
  return {Value::string(std::move(out))};
}

// --- table -------------------------------------------------------------------

std::vector<Value> table_insert(Interp&, std::vector<Value>& args) {
  const TablePtr t = arg_table(args, 0, "insert");
  if (args.size() >= 3) {
    const auto pos = static_cast<std::size_t>(arg_number(args, 1, "insert"));
    const auto len = t->sequence_length();
    // Shift [pos, len] up by one.
    for (std::size_t i = len; i >= pos && i >= 1; --i) {
      t->set(TableKey{static_cast<double>(i + 1)}, t->get(TableKey{static_cast<double>(i)}));
      if (i == pos) break;
    }
    t->set(TableKey{static_cast<double>(pos)}, args[2]);
  } else {
    const auto len = t->sequence_length();
    t->set(TableKey{static_cast<double>(len + 1)}, arg_or_nil(args, 1));
  }
  return {};
}

std::vector<Value> table_remove(Interp&, std::vector<Value>& args) {
  const TablePtr t = arg_table(args, 0, "remove");
  const auto len = t->sequence_length();
  if (len == 0) return {Value::nil()};
  auto pos = len;
  if (args.size() >= 2) pos = static_cast<std::size_t>(arg_number(args, 1, "remove"));
  if (pos < 1 || pos > len) return {Value::nil()};
  Value removed = t->get(TableKey{static_cast<double>(pos)});
  for (std::size_t i = pos; i < len; ++i) {
    t->set(TableKey{static_cast<double>(i)}, t->get(TableKey{static_cast<double>(i + 1)}));
  }
  t->set(TableKey{static_cast<double>(len)}, Value::nil());
  return {std::move(removed)};
}

std::vector<Value> table_concat(Interp&, std::vector<Value>& args) {
  const TablePtr t = arg_table(args, 0, "concat");
  const std::string sep = args.size() > 1 ? arg_string(args, 1, "concat") : "";
  const auto len = t->sequence_length();
  std::string out;
  for (std::size_t i = 1; i <= len; ++i) {
    if (i > 1) out += sep;
    const Value v = t->get(TableKey{static_cast<double>(i)});
    if (v.is_string()) {
      out += v.as_string();
    } else if (v.is_number()) {
      out += number_to_string(v.as_number());
    } else {
      throw RuntimeError{"invalid value (at index " + std::to_string(i) + ") in table.concat", 0};
    }
  }
  return {Value::string(std::move(out))};
}

// --- crypto ------------------------------------------------------------------
//
// The paper (§III.B): the plaintext password check "can easily be enhanced
// via encryption primitives involving the AA and public/private key pairs."
// The sandbox exposes collision-resistant hashing so admins can implement
// token/capability schemes (e.g. AA stores sha1(secret); callers present
// the secret, or an hmac over the query id) without plaintext secrets in
// the AA table.

std::string hex_digest(const std::array<std::uint8_t, 20>& digest) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (auto b : digest) {
    out += hex[b >> 4];
    out += hex[b & 0xF];
  }
  return out;
}

std::vector<Value> crypto_sha1(Interp&, std::vector<Value>& args) {
  return {Value::string(hex_digest(util::Sha1::hash(arg_string(args, 0, "sha1"))))};
}

// HMAC-SHA1 (RFC 2104) over the sandbox's string values.
std::vector<Value> crypto_hmac(Interp&, std::vector<Value>& args) {
  std::string key = arg_string(args, 0, "hmac");
  const std::string msg = arg_string(args, 1, "hmac");
  constexpr std::size_t kBlock = 64;
  if (key.size() > kBlock) {
    const auto digest = util::Sha1::hash(key);
    key.assign(reinterpret_cast<const char*>(digest.data()), digest.size());
  }
  key.resize(kBlock, '\0');
  std::string ipad = key, opad = key;
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<char>(ipad[i] ^ 0x36);
    opad[i] = static_cast<char>(opad[i] ^ 0x5c);
  }
  util::Sha1 inner;
  inner.update(ipad);
  inner.update(msg);
  const auto inner_digest = inner.digest();
  util::Sha1 outer;
  outer.update(opad);
  outer.update(inner_digest.data(), inner_digest.size());
  return {Value::string(hex_digest(outer.digest()))};
}

Value make_module(std::initializer_list<std::pair<const char*, Value>> fns) {
  auto t = std::make_shared<Table>();
  for (const auto& [name, fn] : fns) t->set(TableKey{std::string(name)}, fn);
  return Value::table(std::move(t));
}

void install_stdlib(Env& env) {
  env.vars["type"] = make_native(builtin_type);
  env.vars["tostring"] = make_native(builtin_tostring);
  env.vars["tonumber"] = make_native(builtin_tonumber);
  env.vars["error"] = make_native(builtin_error);
  env.vars["assert"] = make_native(builtin_assert);
  env.vars["print"] = make_native(builtin_print);
  env.vars["next"] = make_native(builtin_next);
  env.vars["pairs"] = make_native(builtin_pairs);
  env.vars["ipairs"] = make_native(builtin_ipairs);
  env.vars["select"] = make_native(builtin_select);

  auto math = make_module({
      {"floor", make_native(math_unary<std::floor>)},
      {"ceil", make_native(math_unary<std::ceil>)},
      {"abs", make_native(math_unary<std::fabs>)},
      {"sqrt", make_native(math_unary<std::sqrt>)},
      {"exp", make_native(math_unary<std::exp>)},
      {"log", make_native(math_unary<std::log>)},
      {"max", make_native(math_max)},
      {"min", make_native(math_min)},
      {"fmod", make_native(math_fmod)},
      {"pow", make_native(math_pow)},
  });
  math.as_table()->set(TableKey{std::string("huge")},
                       Value::number(std::numeric_limits<double>::infinity()));
  math.as_table()->set(TableKey{std::string("pi")}, Value::number(3.14159265358979323846));
  env.vars["math"] = math;

  env.vars["string"] = make_module({
      {"len", make_native(string_len)},
      {"sub", make_native(string_sub)},
      {"upper", make_native(string_upper)},
      {"lower", make_native(string_lower)},
      {"rep", make_native(string_rep)},
      {"reverse", make_native(string_reverse)},
      {"find", make_native(string_find)},
      {"match", make_native(string_match)},
      {"gmatch", make_native(string_gmatch)},
      {"gsub", make_native(string_gsub)},
      {"byte", make_native(string_byte)},
      {"char", make_native(string_char)},
      {"format", make_native(string_format)},
  });

  env.vars["table"] = make_module({
      {"insert", make_native(table_insert)},
      {"remove", make_native(table_remove)},
      {"concat", make_native(table_concat)},
  });

  env.vars["crypto"] = make_module({
      {"sha1", make_native(crypto_sha1)},
      {"hmac", make_native(crypto_hmac)},
  });

  // Deliberately absent: io, os, require, load, dofile, loadstring,
  // collectgarbage, coroutine — the sandbox has no kernel, file system, or
  // network access (§III.B).
}

}  // namespace

const Env& shared_stdlib() {
  // Never destroyed: a script that outlives static destruction still
  // points at it.
  static const Env* const scope = [] {
    auto* env = new Env;
    install_stdlib(*env);
    return env;
  }();
  return *scope;
}

}  // namespace rbay::aal
