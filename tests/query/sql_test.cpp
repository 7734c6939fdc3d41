#include "query/sql.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

namespace rbay::query {
namespace {

Query parse_ok(const std::string& sql) {
  auto r = parse_query(sql);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error());
  return r.ok() ? r.take() : Query{};
}

TEST(SqlParser, PaperFig6Example) {
  const auto q = parse_ok(R"(
SELECT 5 FROM * WHERE CPU_model = "Intel Core i7"
                  AND CPU_utilization < 10%
GROUPBY CPU_utilization DESC;)");
  EXPECT_EQ(q.k, 5);
  EXPECT_TRUE(q.sites.empty());
  ASSERT_EQ(q.predicates.size(), 2u);
  EXPECT_EQ(q.predicates[0].attribute, "CPU_model");
  EXPECT_EQ(q.predicates[0].op, CompareOp::Eq);
  EXPECT_EQ(q.predicates[0].literal.as_string(), "Intel Core i7");
  EXPECT_EQ(q.predicates[1].op, CompareOp::Less);
  EXPECT_DOUBLE_EQ(q.predicates[1].literal.as_double(), 0.10);  // 10% → 0.1
  ASSERT_TRUE(q.group_by.has_value());
  EXPECT_EQ(*q.group_by, "CPU_utilization");
  EXPECT_TRUE(q.descending);
}

TEST(SqlParser, SelectNodeIdMeansOne) {
  EXPECT_EQ(parse_ok("SELECT NodeId FROM *").k, 1);
  EXPECT_EQ(parse_ok("SELECT * FROM *").k, 1);
}

TEST(SqlParser, SelectCount) {
  const auto q = parse_ok("SELECT COUNT FROM * WHERE GPU = true");
  EXPECT_TRUE(q.count_only);
  const auto q2 = parse_ok("select count from Tokyo");
  EXPECT_TRUE(q2.count_only);
  EXPECT_FALSE(parse_ok("SELECT 3 FROM *").count_only);
  // COUNT round-trips through to_string.
  EXPECT_TRUE(parse_ok(q.to_string()).count_only);
}

TEST(SqlParser, SiteList) {
  const auto q = parse_ok("SELECT 2 FROM Virginia, Tokyo WHERE GPU = true");
  ASSERT_EQ(q.sites.size(), 2u);
  EXPECT_EQ(q.sites[0], "Virginia");
  EXPECT_EQ(q.sites[1], "Tokyo");
}

TEST(SqlParser, AllOperators) {
  const auto q = parse_ok(
      "SELECT 1 FROM * WHERE a = 1 AND b != 2 AND c < 3 AND d <= 4 AND e > 5 AND f >= 6 "
      "AND g <> 7");
  ASSERT_EQ(q.predicates.size(), 7u);
  EXPECT_EQ(q.predicates[0].op, CompareOp::Eq);
  EXPECT_EQ(q.predicates[1].op, CompareOp::NotEq);
  EXPECT_EQ(q.predicates[2].op, CompareOp::Less);
  EXPECT_EQ(q.predicates[3].op, CompareOp::LessEq);
  EXPECT_EQ(q.predicates[4].op, CompareOp::Greater);
  EXPECT_EQ(q.predicates[5].op, CompareOp::GreaterEq);
  EXPECT_EQ(q.predicates[6].op, CompareOp::NotEq);  // <> synonym
}

TEST(SqlParser, LiteralTypes) {
  const auto q = parse_ok(
      "SELECT 1 FROM * WHERE flag = true AND off = false AND num = 2.5 AND txt = 'x' AND os = "
      "Ubuntu");
  EXPECT_TRUE(q.predicates[0].literal.as_bool());
  EXPECT_FALSE(q.predicates[1].literal.as_bool());
  EXPECT_DOUBLE_EQ(q.predicates[2].literal.as_double(), 2.5);
  EXPECT_EQ(q.predicates[3].literal.as_string(), "x");
  EXPECT_EQ(q.predicates[4].literal.as_string(), "Ubuntu");
}

TEST(SqlParser, WithPayloadClause) {
  const auto q = parse_ok("SELECT 1 FROM * WHERE GPU = true WITH \"3053482032\"");
  EXPECT_EQ(q.payload, "3053482032");
}

TEST(SqlParser, GroupByVariants) {
  EXPECT_FALSE(parse_ok("SELECT 1 FROM * GROUPBY x ASC").descending);
  EXPECT_TRUE(parse_ok("SELECT 1 FROM * GROUP BY x DESC").descending);
  EXPECT_FALSE(parse_ok("SELECT 1 FROM * GROUPBY x").descending);
}

TEST(SqlParser, CaseInsensitiveKeywords) {
  const auto q = parse_ok("select 3 from * where GPU = true groupby GPU desc");
  EXPECT_EQ(q.k, 3);
  EXPECT_TRUE(q.descending);
}

TEST(SqlParser, Errors) {
  EXPECT_FALSE(parse_query("").ok());
  EXPECT_FALSE(parse_query("FROM *").ok());
  EXPECT_FALSE(parse_query("SELECT 0 FROM *").ok());            // k >= 1
  EXPECT_FALSE(parse_query("SELECT 1 WHERE a = 1").ok());       // missing FROM
  EXPECT_FALSE(parse_query("SELECT 1 FROM * WHERE a").ok());    // missing op
  EXPECT_FALSE(parse_query("SELECT 1 FROM * WHERE a =").ok());  // missing literal
  EXPECT_FALSE(parse_query("SELECT 1 FROM * trailing junk").ok());
  EXPECT_FALSE(parse_query("SELECT 1 FROM * WHERE a = 'unterminated").ok());
  EXPECT_FALSE(parse_query("SELECT 1 FROM * GROUP x").ok());  // GROUP without BY
}

// --- golden tables -------------------------------------------------------------

/// Every field of `a` and `b` equal; `what` names the input in failures.
void expect_same_query(const Query& a, const Query& b, const std::string& what) {
  EXPECT_EQ(a.k, b.k) << what;
  EXPECT_EQ(a.count_only, b.count_only) << what;
  EXPECT_EQ(a.sites, b.sites) << what;
  ASSERT_EQ(a.predicates.size(), b.predicates.size()) << what;
  for (std::size_t i = 0; i < a.predicates.size(); ++i) {
    EXPECT_EQ(a.predicates[i].attribute, b.predicates[i].attribute) << what << " #" << i;
    EXPECT_EQ(a.predicates[i].op, b.predicates[i].op) << what << " #" << i;
    EXPECT_EQ(a.predicates[i].literal, b.predicates[i].literal)
        << what << " #" << i << ": " << a.predicates[i].literal.to_string() << " vs "
        << b.predicates[i].literal.to_string();
  }
  EXPECT_EQ(a.group_by, b.group_by) << what;
  EXPECT_EQ(a.descending, b.descending) << what;
  EXPECT_EQ(a.payload, b.payload) << what;
}

Query make_query(int k, bool count_only, std::vector<std::string> sites,
                 std::vector<Predicate> predicates, std::optional<std::string> group_by = {},
                 bool descending = false, std::string payload = {}) {
  Query q;
  q.k = k;
  q.count_only = count_only;
  q.sites = std::move(sites);
  q.predicates = std::move(predicates);
  q.group_by = std::move(group_by);
  q.descending = descending;
  q.payload = std::move(payload);
  return q;
}

TEST(SqlGolden, AcceptedInputsParseToEveryField) {
  using V = store::AttributeValue;
  const struct {
    std::string sql;
    Query want;
  } cases[] = {
      {"select count from * where GPU = TRUE;;",
       make_query(1, true, {}, {{"GPU", CompareOp::Eq, V{true}}})},
      {"SeLeCt 3 FrOm Virginia, \"New York\" WhErE a <> 1 GrOuP bY cpu DeSc",
       make_query(3, false, {"Virginia", "New York"}, {{"a", CompareOp::NotEq, V{1.0}}}, "cpu",
                  true)},
      {"SELECT 5 FROM * WHERE CPU_utilization < 10%",
       make_query(5, false, {}, {{"CPU_utilization", CompareOp::Less, V{0.1}}})},
      {"SELECT 1 FROM * WHERE x = 5 %",
       make_query(1, false, {}, {{"x", CompareOp::Eq, V{0.05}}})},
      {"SELECT 1 FROM * WHERE n >= .5 AND m = 007 AND z = 5.",
       make_query(1, false, {},
                  {{"n", CompareOp::GreaterEq, V{0.5}},
                   {"m", CompareOp::Eq, V{7.0}},
                   {"z", CompareOp::Eq, V{5.0}}})},
      {"SELECT * FROM * WHERE os = Ubuntu AND txt = 'x y' AND q = \"it's\" GROUPBY n ASC "
       "WITH \"pw\";",
       make_query(1, false, {},
                  {{"os", CompareOp::Eq, V{"Ubuntu"}},
                   {"txt", CompareOp::Eq, V{"x y"}},
                   {"q", CompareOp::Eq, V{"it's"}}},
                  "n", false, "pw")},
      {"SELECT NodeId FROM Tokyo", make_query(1, false, {"Tokyo"}, {})},
      {"SELECT 2.0 FROM *", make_query(2, false, {}, {})},
      // A number ends at the first non-digit: `1AND` is `1` then `AND`.
      {"SELECT 1 FROM * WHERE a=1AND b!=2",
       make_query(1, false, {}, {{"a", CompareOp::Eq, V{1.0}}, {"b", CompareOp::NotEq, V{2.0}}})},
      {"SELECT 1 FROM * WHERE instance = c3.8xlarge AND flag = False AND s <= b",
       make_query(1, false, {},
                  {{"instance", CompareOp::Eq, V{"c3.8xlarge"}},
                   {"flag", CompareOp::Eq, V{false}},
                   {"s", CompareOp::LessEq, V{"b"}}})},
      {"\tSELECT\n4\rFROM\v*\f;", make_query(4, false, {}, {})},
      {"SELECT 1 FROM *;;;", make_query(1, false, {}, {})},
      {"SELECT 1 FROM * WHERE a > 2 AND b < 3 GROUP BY a",
       make_query(1, false, {}, {{"a", CompareOp::Greater, V{2.0}}, {"b", CompareOp::Less, V{3.0}}},
                  "a")},
      // FROM takes any word as a site, keywords included.
      {"SELECT 1 FROM WHERE", make_query(1, false, {"WHERE"}, {})},
      {"SELECT 1 FROM a,'',\"b c\"", make_query(1, false, {"a", "", "b c"}, {})},
      {"SELECT 1 FROM * WITH \"\"", make_query(1, false, {}, {})},
  };
  for (const auto& c : cases) {
    auto r = parse_query(c.sql);
    ASSERT_TRUE(r.ok()) << c.sql << ": " << r.error();
    expect_same_query(r.value(), c.want, c.sql);
  }
}

TEST(SqlGolden, NumbersReadBitForBitAsStrtodAndRoundTrip) {
  // Tree names hash the canonical literal, so a number must be exactly the
  // double strtod reads from its digit run, out-of-range runs included.
  std::vector<std::string> runs = {"0", "007", ".5", "5.", "0.1", "9007199254740993",
                                   "2.2250738585072011", "123456789012345678901234567890",
                                   std::string(400, '9'), "0." + std::string(320, '0') + "5",
                                   "0." + std::string(400, '0') + "1"};
  std::mt19937_64 rng(42);
  for (int i = 0; i < 2000; ++i) {
    // At most one '.' per run: a second one is a lexer error.
    std::string run(1, static_cast<char>('0' + rng() % 10));
    bool dotted = false;
    for (auto n = rng() % 24; n > 0; --n) {
      if (!dotted && rng() % 8 == 0) {
        run += '.';
        dotted = true;
      } else {
        run += static_cast<char>('0' + rng() % 10);
      }
    }
    runs.push_back(run);
  }
  for (const auto& run : runs) {
    const auto q = parse_ok("SELECT 1 FROM * WHERE n = " + run);
    ASSERT_EQ(q.predicates.size(), 1u) << run;
    const auto want = std::bit_cast<std::uint64_t>(std::strtod(run.c_str(), nullptr));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(q.predicates[0].literal.as_double()), want) << run;
    const auto again = parse_ok(q.to_string());
    ASSERT_EQ(again.predicates.size(), 1u) << q.to_string();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(again.predicates[0].literal.as_double()), want)
        << run << " -> " << q.to_string();
  }
}

TEST(SqlGolden, RejectedInputsNameTheirError) {
  const struct {
    std::string sql;
    std::string error;
  } cases[] = {
      {"", "query must start with SELECT"},
      {"FROM *", "query must start with SELECT"},
      {"SELECT 0 FROM *", "SELECT count must be >= 1"},
      {"SELECT 2.9 FROM *", "SELECT count must be a whole number"},
      {"SELECT , FROM *", "expected count, column, or * after SELECT"},
      {"SELECT 1 WHERE a = 1", "expected FROM"},
      {"SELECT 1 FROM , x", "expected * or site list after FROM"},
      {"SELECT 1 FROM a,", "expected site name after ','"},
      {"SELECT 1 FROM * WHERE 5 = 1", "expected attribute name"},
      {"SELECT 1 FROM * WHERE a = 1 AND", "expected attribute name"},
      {"SELECT 1 FROM * WHERE a", "expected comparison operator"},
      {"SELECT 1 FROM * WHERE a =", "expected literal after operator"},
      {"SELECT 1 FROM * GROUP x", "expected BY after GROUP"},
      {"SELECT 1 FROM * GROUPBY 5", "expected attribute after GROUPBY"},
      {"SELECT 1 FROM * GROUP BY", "expected attribute after GROUPBY"},
      {"SELECT 1 FROM * WITH pw", "expected string after WITH"},
      {"SELECT 1 FROM * trailing junk", "unexpected trailing token 'trailing'"},
      {"SELECT 1 FROM * 'str'", "unexpected trailing token 'str'"},
      {"SELECT 1 FROM * WHERE a = 1 <> 2", "unexpected trailing token '!='"},
      {"SELECT 1 FROM * WHERE a = 'unterminated", "unterminated string in query"},
      {"SELECT 1 FROM * WHERE a ! 1", "unexpected '!' in query"},
      {"SELECT 1 FROM * WHERE a = -1", "unexpected character '-' in query"},
      {"SELECT 1 FROM * WHERE a = 1 #", "unexpected character '#' in query"},
      // A digit run with a second '.' is no number, not its longest prefix.
      {"SELECT 1 FROM * WHERE v = 1.2.3", "malformed number '1.2.3' in query"},
      {"SELECT 1 FROM * WHERE v = .5.", "malformed number '.5.' in query"},
      {"SELECT 1.. FROM *", "malformed number '1..' in query"},
      // The whole input is lexed before it is parsed: a lexer error wins
      // over a parse error earlier in the text.
      {"FROM * WHERE a = $", "unexpected character '$' in query"},
      {"SELECT 1 FROM * junk 'open", "unterminated string in query"},
      // Bytes >= 0x80 are no letters (C-locale classification).
      {"SELECT 1 FROM * WHERE city = M\xC3\xBCnchen", "unexpected character '\xC3' in query"},
  };
  for (const auto& c : cases) {
    auto r = parse_query(c.sql);
    ASSERT_FALSE(r.ok()) << c.sql;
    EXPECT_EQ(r.error(), c.error) << c.sql;
  }
}

// --- seeded random inputs ------------------------------------------------------

/// Query-shaped text from a token soup: mostly grammatical, with random
/// case, spacing and stray bytes, so both the accept and reject paths run.
std::string random_sql(std::mt19937_64& rng) {
  auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  static const char* const kWords[] = {"SELECT", "COUNT", "FROM", "WHERE", "AND", "GROUP",
                                       "BY", "GROUPBY", "DESC", "ASC", "WITH", "true",
                                       "FALSE", "NodeId", "GPU", "CPU_utilization", "os",
                                       "c3.8xlarge", "_x", "Tokyo", "a.b.c"};
  static const char* const kOps[] = {"=", "!=", "<", "<=", ">", ">=", "<>", "!", "%",
                                     ",", ";", "*"};
  static const char* const kSpace[] = {" ", "  ", "\t", "\n", ""};
  auto word = [&] {
    std::string w = kWords[pick(std::size(kWords))];
    for (auto& ch : w) {
      if (pick(4) == 0 && ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
    }
    return w;
  };
  auto number = [&] {
    std::string n;
    const auto digits = 1 + pick(6);
    for (std::size_t i = 0; i < digits; ++i) {
      n += static_cast<char>('0' + pick(10));
      if (pick(5) == 0) n += '.';
    }
    return n;
  };
  auto string_lit = [&] {
    const char quote = pick(2) == 0 ? '"' : '\'';
    std::string s(1, quote);
    const auto len = pick(8);
    for (std::size_t i = 0; i < len; ++i) {
      const auto ch = static_cast<char>(' ' + pick(95));
      if (ch != quote) s += ch;
    }
    if (pick(20) != 0) s += quote;
    return s;
  };
  std::string out;
  if (pick(4) != 0) {
    // Grammatical skeleton, then random damage below.
    out = "SELECT ";
    out += pick(3) == 0 ? "COUNT" : (pick(2) == 0 ? number() : word());
    out += " FROM ";
    out += pick(2) == 0 ? "*" : word() + (pick(2) == 0 ? ", " + string_lit() : "");
    const auto preds = pick(4);
    for (std::size_t i = 0; i < preds; ++i) {
      out += i == 0 ? " WHERE " : " AND ";
      out += word();
      out += kOps[pick(6)];
      const auto lit = pick(3);
      out += lit == 0 ? number() + (pick(3) == 0 ? "%" : "") : lit == 1 ? string_lit() : word();
    }
    if (pick(3) == 0) out += std::string(pick(2) == 0 ? " GROUPBY " : " group by ") + word();
    if (pick(3) == 0) out += " WITH " + string_lit();
    if (pick(2) == 0) out += ";";
  }
  const auto extra = pick(4);
  for (std::size_t i = 0; i < extra; ++i) {
    std::string piece;
    switch (pick(5)) {
      case 0: piece = word(); break;
      case 1: piece = number(); break;
      case 2: piece = string_lit(); break;
      case 3: piece = kOps[pick(std::size(kOps))]; break;
      default: piece = std::string(1, static_cast<char>(pick(256))); break;
    }
    out.insert(pick(out.size() + 1), piece + kSpace[pick(std::size(kSpace))]);
  }
  return out;
}

TEST(SqlRandom, NoCrashAndAcceptedQueriesRoundTrip) {
  std::mt19937_64 rng(20171);  // fixed seed: failures reproduce
  int accepted = 0;
  constexpr int kInputs = 20000;
  for (int i = 0; i < kInputs; ++i) {
    const auto sql = random_sql(rng);
    auto r = parse_query(sql);
    if (!r.ok()) {
      EXPECT_FALSE(r.error().empty()) << sql;
      continue;
    }
    ++accepted;
    const auto text = r.value().to_string();
    auto again = parse_query(text);
    ASSERT_TRUE(again.ok()) << sql << " -> " << text << ": " << again.error();
    expect_same_query(again.value(), r.value(), sql + " -> " + text);
  }
  // Both paths ran often enough to mean something.
  EXPECT_GT(accepted, kInputs / 10);
  EXPECT_LT(accepted, kInputs * 9 / 10);
}

TEST(Predicate, MatchesNumericComparisons) {
  Predicate p{"cpu", CompareOp::Less, store::AttributeValue{0.1}};
  EXPECT_TRUE(p.matches(store::AttributeValue{0.05}));
  EXPECT_FALSE(p.matches(store::AttributeValue{0.5}));
  // int vs double compare numerically
  Predicate q{"mem", CompareOp::GreaterEq, store::AttributeValue{4}};
  EXPECT_TRUE(q.matches(store::AttributeValue{4.0}));
  EXPECT_FALSE(q.matches(store::AttributeValue{3.9}));
}

TEST(Predicate, MatchesStringsAndBooleans) {
  Predicate p{"os", CompareOp::Eq, store::AttributeValue{"Ubuntu"}};
  EXPECT_TRUE(p.matches(store::AttributeValue{"Ubuntu"}));
  EXPECT_FALSE(p.matches(store::AttributeValue{"CentOS"}));
  Predicate g{"gpu", CompareOp::Eq, store::AttributeValue{true}};
  EXPECT_TRUE(g.matches(store::AttributeValue{true}));
  EXPECT_FALSE(g.matches(store::AttributeValue{false}));
}

TEST(Predicate, TypeMismatchOnlySatisfiesNotEq) {
  Predicate eq{"x", CompareOp::Eq, store::AttributeValue{"text"}};
  EXPECT_FALSE(eq.matches(store::AttributeValue{5}));
  Predicate ne{"x", CompareOp::NotEq, store::AttributeValue{"text"}};
  EXPECT_TRUE(ne.matches(store::AttributeValue{5}));
  Predicate lt{"x", CompareOp::Less, store::AttributeValue{"text"}};
  EXPECT_FALSE(lt.matches(store::AttributeValue{5}));
}

TEST(Predicate, CanonicalForm) {
  Predicate p{"CPU_utilization", CompareOp::Less, store::AttributeValue{0.1}};
  EXPECT_EQ(p.canonical(), "CPU_utilization<0.1");
  Predicate q{"instance", CompareOp::Eq, store::AttributeValue{"c3.8xlarge"}};
  EXPECT_EQ(q.canonical(), "instance=c3.8xlarge");
}

TEST(Query, ToStringRoundTripsThroughParser) {
  // String literals stay quoted strings (even "5" and "true"), multi-word
  // literals and site names stay one token, and WITH survives.
  const char* inputs[] = {
      "SELECT 4 FROM Tokyo WHERE a < 5 GROUPBY a DESC",
      R"(SELECT 5 FROM * WHERE CPU_model = "Intel Core i7" AND CPU_utilization < 10%)",
      R"(SELECT 1 FROM * WHERE GPU = true WITH "rbay")",
      R"(SELECT 1 FROM * WHERE os = '5' AND kind = 'true' AND q = "it's" AND r = 'say "hi"')",
      R"(SELECT 2 FROM "New York", Tokyo WHERE n >= 0.000001 GROUP BY n DESC)",
  };
  for (const char* sql : inputs) {
    const auto q = parse_ok(sql);
    const auto text = q.to_string();
    auto again = parse_query(text);
    ASSERT_TRUE(again.ok()) << sql << " -> " << text << ": " << again.error();
    expect_same_query(again.value(), q, text);
  }
  EXPECT_EQ(parse_ok(inputs[2]).to_string(), R"(SELECT 1 FROM * WHERE GPU = true WITH "rbay")");
}

}  // namespace
}  // namespace rbay::query
