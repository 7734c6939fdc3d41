// The engine clock under a control-driven loop (docs/PARALLEL_ENGINE.md).
//
// Benches and tests run query loops from outside any event: submit a
// query, run() until it quiesces, submit the next.  Each submission is
// stamped with now(), so run() must leave the clock where the federation
// stopped.  If it left the control clock behind, every later query would
// start at the same instant, find its own earlier traffic still "in the
// future", and the loop would simulate a different federation.  The loop
// must also be the same simulation at every worker count.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/cluster.hpp"

namespace rbay::core {
namespace {

using util::SimTime;

struct LoopResult {
  std::uint64_t events = 0;
  SimTime end = SimTime::zero();
  int satisfied = 0;
};

LoopResult run_query_loop(unsigned threads) {
  ClusterConfig config;
  config.topology = net::Topology::ec2_eight_sites();
  config.seed = 11;
  config.engine.threads = threads;
  config.node.scribe.aggregation_interval = SimTime::millis(250);
  RBayCluster cluster{config};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(4);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.node(i).post("GPU", i % 2 == 0).ok());
  }
  cluster.finalize();
  cluster.run_for(SimTime::seconds(3));

  auto& engine = cluster.engine();
  const std::uint64_t events_before = engine.executed();
  LoopResult result;
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE("step=" + std::to_string(step));
    const SimTime submitted = engine.now();
    QueryOutcome outcome;
    auto& from = cluster.node(static_cast<std::size_t>(step) % cluster.size()).query();
    from.execute_sql("SELECT 2 FROM Sydney WHERE GPU = true",
                     [&](const QueryOutcome& o) { outcome = o; });
    cluster.run();
    EXPECT_GT(outcome.finished.as_micros(), submitted.as_micros());
    EXPECT_GE(engine.now().as_micros(), outcome.finished.as_micros());
    if (outcome.satisfied) {
      ++result.satisfied;
      from.release(outcome);
      cluster.run();
    }
  }
  result.events = engine.executed() - events_before;
  result.end = engine.now();
  return result;
}

TEST(QueryLoopClock, RunLeavesTheClockWhereTheFederationStopped) {
  const LoopResult one = run_query_loop(1);
  EXPECT_EQ(one.satisfied, 12);
  const LoopResult four = run_query_loop(4);
  EXPECT_EQ(four.events, one.events);
  EXPECT_EQ(four.end.as_micros(), one.end.as_micros());
  EXPECT_EQ(four.satisfied, one.satisfied);
}

}  // namespace
}  // namespace rbay::core
