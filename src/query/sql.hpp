#pragma once

// SQL-like query interface (the paper's Zql stand-in, §III.D).
//
// Supported form (Fig. 6):
//
//   SELECT k FROM * WHERE CPU_model = "Intel Core i7"
//                     AND CPU_utilization < 10%
//   GROUPBY CPU_utilization DESC;
//
// `k` is how many servers to reserve; FROM is `*` (all federated sites) or
// a comma-separated site list; WHERE is a conjunction of attribute
// predicates; GROUPBY orders the returned candidates.  An optional
// `WITH "payload"` clause supplies the argument forwarded to each node's
// onGet handler (e.g. a password).

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "store/attribute.hpp"
#include "util/result.hpp"

namespace rbay::query {

enum class CompareOp { Eq, NotEq, Less, LessEq, Greater, GreaterEq };

const char* compare_op_name(CompareOp op);

/// One `attr OP literal` conjunct.
struct Predicate {
  std::string attribute;
  CompareOp op = CompareOp::Eq;
  store::AttributeValue literal;

  /// True if `value` satisfies this predicate.  Numeric comparisons apply
  /// when both sides are numeric; otherwise string comparison on equal
  /// types; mismatched types never match (except !=).
  [[nodiscard]] bool matches(const store::AttributeValue& value) const;

  /// Canonical textual form, e.g. "CPU_utilization<0.1" — this is the
  /// string whose SHA-1 names the predicate's aggregation tree.
  [[nodiscard]] std::string canonical() const;
};

struct Query {
  int k = 1;                       // SELECT k
  bool count_only = false;         // SELECT COUNT — answered from tree aggregates
  std::vector<std::string> sites;  // FROM; empty = * (all sites)
  std::vector<Predicate> predicates;
  std::optional<std::string> group_by;
  bool descending = false;
  std::string payload;  // WITH "..." → forwarded to onGet

  [[nodiscard]] std::string to_string() const;
};

/// Parses the SQL-subset text.  Errors name the offending token.
util::Result<Query> parse_query(std::string_view sql);

}  // namespace rbay::query
