// Seed-matrixed hot-tree chaos: with fan-in caps and root-set rotation on,
// crashing a delegate mid-aggregation or the root mid-rotation must leave
// every invariant intact (including the fan-in cap itself), keep COUNT
// answers bounded-stale during the repair window, and re-converge to
// ground truth — and the differential oracle must see zero divergence when
// the randomized fault workload runs with the balancer enabled.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/query_interface.hpp"
#include "fault/invariants.hpp"
#include "model/harness.hpp"

namespace rbay::fault {
namespace {

using util::SimTime;

constexpr std::size_t kNodes = 32;
constexpr int kCap = 3;

core::RBayCluster make_cluster(std::uint64_t seed) {
  core::ClusterConfig config;
  config.topology = net::Topology::uniform(1, 0.5, 40.0);
  config.seed = seed;
  config.metrics = true;
  config.node.scribe.aggregation_interval = SimTime::millis(200);
  config.node.scribe.heartbeat_interval = SimTime::millis(250);
  config.node.scribe.anycast_timeout = SimTime::millis(1500);
  config.node.scribe.fan_in_cap = kCap;
  config.node.scribe.root_set = 2;
  return core::RBayCluster{config};
}

void populate(core::RBayCluster& cluster) {
  cluster.add_tree_spec(core::TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  for (std::size_t i = 0; i < kNodes; ++i) cluster.add_node(0);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.node(i).post("GPU", true).ok());
  }
  cluster.finalize();
  cluster.run_for(SimTime::seconds(3));
}

core::QueryOutcome count_site0(core::RBayCluster& cluster, std::size_t from) {
  core::QueryOutcome outcome;
  bool done = false;
  cluster.node(from).query().execute_sql(
      "SELECT COUNT FROM Site0 WHERE GPU = true",
      [&](const core::QueryOutcome& o) {
        outcome = o;
        done = true;
      });
  cluster.run();
  EXPECT_TRUE(done) << "COUNT query never completed";
  return outcome;
}

std::size_t live_node_except(core::RBayCluster& cluster, std::size_t avoid) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i != avoid && !cluster.overlay().is_failed(i)) return i;
  }
  return SIZE_MAX;
}

TEST(SplitChaos, DelegateCrashMidAggregationRepairsUnderTheCap) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto cluster = make_cluster(seed);
    populate(cluster);
    ASSERT_GE(cluster.metrics()->fed().counter<"scribe.delegations">().value(), 1u)
        << "a 32-node tree capped at " << kCap << " must have delegated";

    // A delegate is an interior non-root node: it carries re-parented
    // children.  Crash one mid-aggregation (half an interval after the
    // last round fired), orphaning its subtree.
    const auto topic = core::site_topic(cluster.tree_specs()[0].canonical, "Site0");
    const auto root = cluster.overlay().root_of(topic);
    std::size_t delegate = SIZE_MAX;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (i != root && !cluster.node(i).scribe().children_of(topic).empty()) {
        delegate = i;
        break;
      }
    }
    ASSERT_NE(delegate, SIZE_MAX);
    cluster.run_for(SimTime::millis(100));
    cluster.overlay().fail_node(delegate);

    // Orphans heartbeat-repair back in; the cap must hold for the new
    // shape too, and the fresh roll-up excludes the dead delegate.
    cluster.run_for(SimTime::seconds(6));
    cluster.run();
    const auto outcome = count_site0(cluster, live_node_except(cluster, delegate));
    EXPECT_TRUE(outcome.satisfied) << outcome.error;
    EXPECT_FALSE(outcome.stale);
    EXPECT_DOUBLE_EQ(outcome.count, static_cast<double>(kNodes - 1));

    const auto report = check_all(cluster);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(SplitChaos, RootCrashMidRotationStaysBoundedThenReconverges) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto cluster = make_cluster(seed);
    populate(cluster);
    const auto max_staleness = cluster.config().node.scribe.max_staleness;

    const auto topic = core::site_topic(cluster.tree_specs()[0].canonical, "Site0");
    const auto root = cluster.overlay().root_of(topic);
    const auto prober = live_node_except(cluster, root);

    // Warm the originator's root-set roster (the first answer advertises
    // it), then crash the root mid-rotation: the cached roster still names
    // the dead root, so some direct probes fan at a corpse and must fall
    // back instead of answering empty.
    const auto warm = count_site0(cluster, prober);
    ASSERT_TRUE(warm.satisfied) << warm.error;
    EXPECT_DOUBLE_EQ(warm.count, static_cast<double>(kNodes));
    cluster.overlay().fail_node(root);
    cluster.run();  // zero-delay replica promotion

    for (int round = 0; round < 3; ++round) {
      const auto outcome = count_site0(cluster, prober);
      EXPECT_TRUE(outcome.satisfied) << outcome.error;
      EXPECT_GT(outcome.count, 0.0) << "round " << round << " answered empty";
      if (outcome.stale) {
        EXPECT_LE(outcome.staleness, max_staleness);
      }
    }

    cluster.run_for(SimTime::seconds(6));
    cluster.run();
    const auto fresh = count_site0(cluster, prober);
    EXPECT_TRUE(fresh.satisfied) << fresh.error;
    EXPECT_FALSE(fresh.stale);
    EXPECT_DOUBLE_EQ(fresh.count, static_cast<double>(kNodes - 1));

    const auto report = check_all(cluster);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

/// The randomized fault workload (crashes, partitions, storms) with the
/// load balancer enabled: the reference model is split-oblivious, so any
/// COUNT the tree re-shaping changes is a real divergence.
class SplitDifferentialSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitDifferentialSeeds, OracleSeesZeroDivergenceWithBalancerOn) {
  model::WorkloadSpec spec;
  spec.seed = GetParam();
  spec.per_site = 6;  // more members per site tree: caps actually bind
  spec.fan_in_cap = 2;
  spec.root_set = 2;
  const auto workload = model::generate_workload(spec);
  const auto result = model::run_differential(workload);
  if (result.divergence.found) {
    const auto shrunk = model::shrink_divergence(workload, 60);
    FAIL() << result.divergence.to_string() << "\nshrunk to " << shrunk.ops.size()
           << " ops: " << shrunk.divergence.to_string();
  }
  EXPECT_GT(result.queries, 0) << result.summary;
}

INSTANTIATE_TEST_SUITE_P(SeedMatrix, SplitDifferentialSeeds,
                         ::testing::Range<std::uint64_t>(1, 6));

}  // namespace
}  // namespace rbay::fault
