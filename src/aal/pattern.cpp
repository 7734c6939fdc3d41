#include "aal/pattern.hpp"

#include <cctype>

namespace rbay::aal {

namespace {
constexpr std::size_t kMaxSteps = 1'000'000;
constexpr int kMaxCaptures = 9;

bool class_match(char cl, unsigned char c) {
  bool result;
  switch (std::tolower(static_cast<unsigned char>(cl))) {
    case 'a': result = std::isalpha(c) != 0; break;
    case 'c': result = std::iscntrl(c) != 0; break;
    case 'd': result = std::isdigit(c) != 0; break;
    case 'g': result = std::isgraph(c) != 0; break;
    case 'l': result = std::islower(c) != 0; break;
    case 'p': result = std::ispunct(c) != 0; break;
    case 's': result = std::isspace(c) != 0; break;
    case 'u': result = std::isupper(c) != 0; break;
    case 'w': result = std::isalnum(c) != 0; break;
    case 'x': result = std::isxdigit(c) != 0; break;
    default: return cl == static_cast<char>(c);  // escaped literal (%%, %., ...)
  }
  // Uppercase class = complement.
  if (std::isupper(static_cast<unsigned char>(cl)) != 0) result = !result;
  return result;
}

}  // namespace

struct Pattern::Matcher {
  std::string_view subject;
  std::string_view pattern;
  mutable std::size_t steps = 0;

  struct Capture {
    std::size_t start = 0;
    std::size_t len = 0;
    bool open = false;
  };
  mutable std::vector<Capture> captures{};

  void step() const {
    if (++steps > kMaxSteps) throw PatternError{"pattern exceeded step limit"};
  }

  // --- single-item matching ------------------------------------------------

  /// Length (in pattern bytes) of the single item starting at `p`.
  std::size_t item_length(std::size_t p) const {
    const char c = pattern[p];
    if (c == '%') {
      if (p + 1 >= pattern.size()) throw PatternError{"malformed pattern (ends with '%')"};
      return 2;
    }
    if (c == '[') {
      std::size_t q = p + 1;
      if (q < pattern.size() && pattern[q] == '^') ++q;
      if (q < pattern.size() && pattern[q] == ']') ++q;  // literal ']' first
      while (q < pattern.size() && pattern[q] != ']') {
        if (pattern[q] == '%') ++q;
        ++q;
      }
      if (q >= pattern.size()) throw PatternError{"malformed pattern (missing ']')"};
      return q - p + 1;
    }
    return 1;
  }

  bool single_match(std::size_t s, std::size_t p, std::size_t item_len) const {
    if (s >= subject.size()) return false;
    const auto c = static_cast<unsigned char>(subject[s]);
    switch (pattern[p]) {
      case '.': return true;
      case '%': return class_match(pattern[p + 1], c);
      case '[': return set_match(p, p + item_len - 1, c);
      default: return pattern[p] == static_cast<char>(c);
    }
  }

  bool set_match(std::size_t p, std::size_t close, unsigned char c) const {
    bool negate = false;
    std::size_t q = p + 1;
    if (pattern[q] == '^') {
      negate = true;
      ++q;
    }
    bool found = false;
    while (q < close) {
      if (pattern[q] == '%' && q + 1 < close) {
        if (class_match(pattern[q + 1], c)) found = true;
        q += 2;
      } else if (q + 2 < close && pattern[q + 1] == '-') {
        // range a-z
        if (static_cast<unsigned char>(pattern[q]) <= c &&
            c <= static_cast<unsigned char>(pattern[q + 2])) {
          found = true;
        }
        q += 3;
      } else {
        if (pattern[q] == static_cast<char>(c)) found = true;
        ++q;
      }
    }
    return negate ? !found : found;
  }

  // --- recursive matcher ----------------------------------------------------

  /// Tries to match pattern[p..] against subject[s..]; returns the end
  /// offset in the subject on success.
  std::optional<std::size_t> do_match(std::size_t s, std::size_t p) const {
    step();
    if (p >= pattern.size()) return s;

    const char pc = pattern[p];
    if (pc == '(') {
      return start_capture(s, p + 1);
    }
    if (pc == ')') {
      return end_capture(s, p + 1);
    }
    if (pc == '$' && p + 1 == pattern.size()) {
      return s == subject.size() ? std::optional<std::size_t>(s) : std::nullopt;
    }
    if (pc == '%' && p + 1 < pattern.size()) {
      const char nc = pattern[p + 1];
      if (nc >= '1' && nc <= '9') {
        return match_backref(s, p, static_cast<std::size_t>(nc - '1'));
      }
      if (nc == 'b' || nc == 'f') {
        throw PatternError{std::string("unsupported pattern item '%") + nc +
                           "' (balanced/frontier matches are not in the sandbox subset)"};
      }
    }

    const std::size_t len = item_length(p);
    const std::size_t next = p + len;
    const char quant = next < pattern.size() ? pattern[next] : '\0';

    switch (quant) {
      case '?': {
        if (single_match(s, p, len)) {
          if (auto r = do_match(s + 1, next + 1)) return r;
        }
        return do_match(s, next + 1);
      }
      case '*': return max_expand(s, p, len, next + 1, /*min=*/0);
      case '+': return max_expand(s, p, len, next + 1, /*min=*/1);
      case '-': return min_expand(s, p, len, next + 1);
      default: {
        if (!single_match(s, p, len)) return std::nullopt;
        return do_match(s + 1, next);
      }
    }
  }

  std::optional<std::size_t> max_expand(std::size_t s, std::size_t p, std::size_t len,
                                        std::size_t cont, std::size_t min) const {
    std::size_t count = 0;
    while (single_match(s + count, p, len)) ++count;
    while (count + 1 > min) {  // count >= min, avoiding unsigned underflow
      if (auto r = do_match(s + count, cont)) return r;
      if (count == 0) break;
      --count;
    }
    return std::nullopt;
  }

  std::optional<std::size_t> min_expand(std::size_t s, std::size_t p, std::size_t len,
                                        std::size_t cont) const {
    for (;;) {
      step();
      if (auto r = do_match(s, cont)) return r;
      if (!single_match(s, p, len)) return std::nullopt;
      ++s;
    }
  }

  std::optional<std::size_t> start_capture(std::size_t s, std::size_t p) const {
    if (captures.size() >= kMaxCaptures) throw PatternError{"too many captures"};
    captures.push_back(Capture{s, 0, true});
    auto r = do_match(s, p);
    if (!r) captures.pop_back();
    return r;
  }

  std::optional<std::size_t> end_capture(std::size_t s, std::size_t p) const {
    // Close the innermost open capture.
    std::size_t idx = captures.size();
    while (idx > 0 && !captures[idx - 1].open) --idx;
    if (idx == 0) throw PatternError{"invalid pattern capture (unmatched ')')"};
    auto& cap = captures[idx - 1];
    cap.open = false;
    cap.len = s - cap.start;
    auto r = do_match(s, p);
    if (!r) cap.open = true;  // undo on backtrack
    return r;
  }

  std::optional<std::size_t> match_backref(std::size_t s, std::size_t p,
                                           std::size_t index) const {
    if (index >= captures.size() || captures[index].open) {
      throw PatternError{"invalid capture reference %" + std::to_string(index + 1)};
    }
    const auto text = subject.substr(captures[index].start, captures[index].len);
    if (subject.compare(s, text.size(), text) == 0) {
      return do_match(s + text.size(), p + 2);
    }
    return std::nullopt;
  }
};

Pattern::Pattern(std::string source) : source_(std::move(source)) {
  anchored_ = !source_.empty() && source_[0] == '^';
  body_ = anchored_ ? source_.substr(1) : source_;
}

Pattern Pattern::compile(std::string_view pattern) {
  Pattern compiled{std::string(pattern)};
  // Validate eagerly: walk the items once so malformed patterns fail at
  // compile time rather than mid-query.
  Matcher m{"", compiled.body_};
  for (std::size_t p = 0; p < compiled.body_.size();) {
    const char c = compiled.body_[p];
    if (c == '(' || c == ')' || c == '$') {
      ++p;
      continue;
    }
    p += m.item_length(p);
    if (p < compiled.body_.size() &&
        (compiled.body_[p] == '*' || compiled.body_[p] == '+' || compiled.body_[p] == '-' ||
         compiled.body_[p] == '?')) {
      ++p;
    }
  }
  return compiled;
}

std::optional<MatchResult> Pattern::find(std::string_view subject, std::size_t init) const {
  if (init > subject.size()) return std::nullopt;
  for (std::size_t s = init; s <= subject.size(); ++s) {
    Matcher m{subject, body_};
    if (auto end = m.do_match(s, 0)) {
      MatchResult result;
      result.start = s;
      result.end = *end;
      for (const auto& cap : m.captures) {
        result.captures.emplace_back(subject.substr(cap.start, cap.len));
      }
      return result;
    }
    if (anchored_) break;
  }
  return std::nullopt;
}

std::pair<std::string, int> Pattern::gsub(std::string_view subject,
                                          std::string_view replacement,
                                          std::size_t max_replacements) const {
  std::string out;
  int count = 0;
  std::size_t s = 0;
  while (s <= subject.size() && static_cast<std::size_t>(count) < max_replacements) {
    const auto match = find(subject, s);
    if (!match) break;
    out.append(subject.substr(s, match->start - s));
    // Expand %0..%9 and %% in the replacement.
    for (std::size_t i = 0; i < replacement.size(); ++i) {
      if (replacement[i] != '%' || i + 1 >= replacement.size()) {
        out += replacement[i];
        continue;
      }
      const char r = replacement[++i];
      if (r == '%') {
        out += '%';
      } else if (r == '0') {
        out.append(subject.substr(match->start, match->end - match->start));
      } else if (r >= '1' && r <= '9') {
        const auto idx = static_cast<std::size_t>(r - '1');
        if (idx >= match->captures.size()) {
          throw PatternError{"invalid capture index in replacement"};
        }
        out += match->captures[idx];
      } else {
        throw PatternError{std::string("invalid use of '%") + r + "' in replacement"};
      }
    }
    ++count;
    if (match->end > match->start) {
      s = match->end;
    } else {
      // Empty match: copy one char through to guarantee progress.
      if (match->start < subject.size()) out += subject[match->start];
      s = match->start + 1;
    }
    if (anchored_) break;
  }
  if (s < subject.size()) out.append(subject.substr(s));
  return {std::move(out), count};
}

}  // namespace rbay::aal
