// Query tracing: a composite query must leave a span tree covering all five
// protocol phases (Fig. 7) in order, with at least one hop per phase, and a
// forced reservation conflict must surface as conflict + backoff-retry
// events on the losing query's trace.

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "obs/critical_path.hpp"

namespace rbay::core {
namespace {

using obs::Phase;

struct TraceFixture {
  RBayCluster cluster;

  explicit TraceFixture(std::size_t per_site, std::uint64_t seed = 42)
      : cluster(make_config(seed)) {
    cluster.add_tree_spec(TreeSpec::from_predicate(
        {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
    cluster.add_tree_spec(TreeSpec::from_predicate(
        {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}}));
    cluster.populate(per_site);
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      EXPECT_TRUE(cluster.node(i).post("GPU", true).ok());
      EXPECT_TRUE(cluster.node(i).post("CPU_utilization", 0.05).ok());
    }
    cluster.finalize();
    cluster.run_for(util::SimTime::seconds(2));
  }

  static ClusterConfig make_config(std::uint64_t seed) {
    ClusterConfig config;
    config.seed = seed;
    config.metrics = true;
    config.node.scribe.aggregation_interval = util::SimTime::millis(100);
    config.node.query.max_attempts = 8;
    return config;
  }

  QueryOutcome run_query(std::size_t from, const std::string& sql) {
    QueryOutcome out;
    cluster.node(from).query().execute_sql(sql,
                                           [&](const QueryOutcome& o) { out = o; });
    cluster.run();
    return out;
  }

  std::optional<obs::QueryTrace> trace_of(const QueryOutcome& out) {
    return obs::build_query_trace(cluster.metrics()->causal_log(), to_string(out.query_id));
  }
};

TEST(QueryTrace, CompositeQueryRecordsAllFivePhasesInOrder) {
  TraceFixture f{16};
  const auto out =
      f.run_query(0, "SELECT 3 FROM * WHERE GPU = true AND CPU_utilization < 10%");
  ASSERT_TRUE(out.satisfied) << out.error;

  const auto trace = f.trace_of(out);
  ASSERT_TRUE(trace.has_value()) << "no trace for query " << to_string(out.query_id);
  EXPECT_TRUE(trace->done);
  EXPECT_TRUE(trace->satisfied);
  EXPECT_EQ(trace->attempts, out.attempts);
  EXPECT_EQ(trace->started, out.started);
  EXPECT_EQ(trace->finished, out.finished);

  // All five phases present, first occurrences in protocol order.
  std::size_t prev = 0;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    ASSERT_TRUE(trace->has_phase(phase)) << "missing phase " << obs::phase_name(phase);
    std::size_t first = trace->spans.size();
    for (std::size_t i = 0; i < trace->spans.size(); ++i) {
      if (trace->spans[i].phase == phase) {
        first = i;
        break;
      }
    }
    EXPECT_GE(first, prev) << "phase " << obs::phase_name(phase) << " out of order";
    prev = first;
  }

  // Every span has sane sim-time bounds and at least one hop.
  for (const auto& span : trace->spans) {
    EXPECT_GE(span.hops, 1) << obs::phase_name(span.phase);
    EXPECT_GE(span.start, trace->started) << obs::phase_name(span.phase);
    EXPECT_LE(span.end, trace->finished) << obs::phase_name(span.phase);
    EXPECT_LE(span.start, span.end) << obs::phase_name(span.phase);
  }
  // The probe phase probed both predicate trees; the member search visited
  // as many members as the outcome reports.
  EXPECT_EQ(trace->first_span(Phase::kProbe)->hops, 2);
  EXPECT_EQ(trace->first_span(Phase::kMemberSearch)->hops, out.members_visited);
  EXPECT_EQ(trace->first_span(Phase::kSlotFill)->hops, 3);
}

TEST(QueryTrace, ForcedConflictRecordsBackoffRetry) {
  TraceFixture f{8};
  // Two concurrent queries each want 6 of the 8 nodes: at most one wins the
  // first round; the loser's candidates hit existing reservations.
  std::vector<QueryOutcome> outs;
  for (std::size_t q = 0; q < 2; ++q) {
    f.cluster.node(q).query().execute_sql("SELECT 6 FROM * WHERE GPU = true",
                                          [&outs](const QueryOutcome& o) {
                                            outs.push_back(o);
                                          });
  }
  f.cluster.run();
  ASSERT_EQ(outs.size(), 2u);

  auto& fed = f.cluster.metrics()->fed();
  EXPECT_GE(fed.counter<"query.conflicts">().value(), 1u);
  EXPECT_GE(fed.counter<"query.backoff_retries">().value(), 1u);

  // The query that needed >1 attempt carries the retry on its trace and a
  // span set for every attempt.
  bool saw_retry = false;
  for (const auto& out : outs) {
    const auto trace = f.trace_of(out);
    ASSERT_TRUE(trace.has_value());
    if (out.attempts > 1) {
      saw_retry = true;
      EXPECT_TRUE(trace->has_event("backoff_retry")) << to_string(out.query_id);
      int max_attempt = 0;
      for (const auto& span : trace->spans) max_attempt = std::max(max_attempt, span.attempt);
      EXPECT_EQ(max_attempt, out.attempts);
    }
  }
  EXPECT_TRUE(saw_retry) << "neither query retried — conflict not forced";
}

TEST(QueryTrace, FailedQueryTraceIsClosedUnsatisfied) {
  TraceFixture f{6};
  const auto out = f.run_query(0, "SELECT 1 FROM * WHERE GPU = false");
  EXPECT_FALSE(out.satisfied);
  const auto trace = f.trace_of(out);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->done);
  EXPECT_FALSE(trace->satisfied);
  EXPECT_EQ(trace->attempts, out.attempts);
  // No open span survives finish_query.
  for (const auto& span : trace->spans) EXPECT_LE(span.end, trace->finished);
}

TEST(QueryTrace, CountQueryTracesProbeOnly) {
  TraceFixture f{10};
  const auto out = f.run_query(0, "SELECT COUNT FROM * WHERE GPU = true");
  ASSERT_TRUE(out.satisfied) << out.error;
  const auto trace = f.trace_of(out);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->done);
  // Aggregate answers never anycast or reserve.
  EXPECT_FALSE(trace->has_phase(Phase::kAnycast));
  EXPECT_FALSE(trace->has_phase(Phase::kSlotFill));
}

}  // namespace
}  // namespace rbay::core
