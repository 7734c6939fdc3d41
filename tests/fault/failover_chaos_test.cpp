// Seed-matrixed failover chaos: crashing a site tree root mid-aggregation
// must not stall SELECT COUNT — the promoted replica answers within one
// site timeout with a staleness-bounded degraded read, the replication
// epoch never regresses across the failover, and after a partition heals
// the aggregates re-converge to ground truth on every seed.

#include <gtest/gtest.h>

#include "core/query_interface.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "fault/schedule.hpp"

namespace rbay::fault {
namespace {

using util::SimTime;

constexpr std::size_t kSites = 4;
constexpr std::size_t kPerSite = 12;
constexpr net::SiteId kVictimSite = 1;

core::RBayCluster make_cluster(std::uint64_t seed) {
  core::ClusterConfig config;
  config.topology = net::Topology::uniform(kSites, 0.5, 40.0);
  config.seed = seed;
  config.metrics = true;
  config.node.scribe.aggregation_interval = SimTime::millis(200);
  config.node.scribe.heartbeat_interval = SimTime::millis(250);
  config.node.scribe.anycast_timeout = SimTime::millis(1500);
  return core::RBayCluster{config};
}

void populate(core::RBayCluster& cluster) {
  cluster.add_tree_spec(core::TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  for (std::size_t s = 0; s < kSites; ++s) {
    for (std::size_t i = 0; i < kPerSite; ++i) cluster.add_node(static_cast<net::SiteId>(s));
  }
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.node(i).post("GPU", true).ok());
  }
  cluster.finalize();
  cluster.run_for(SimTime::seconds(2));
}

core::QueryOutcome count_site1(core::RBayCluster& cluster, std::size_t from) {
  core::QueryOutcome outcome;
  bool done = false;
  cluster.node(from).query().execute_sql(
      "SELECT COUNT FROM Site1 WHERE GPU = true",
      [&](const core::QueryOutcome& o) {
        outcome = o;
        done = true;
      });
  cluster.run();
  EXPECT_TRUE(done) << "COUNT query never completed";
  return outcome;
}

TEST(FailoverChaos, RootCrashDuringAggregationServesBoundedStaleCount) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto cluster = make_cluster(seed);
    populate(cluster);
    const auto max_staleness = scribe::ScribeConfig{}.max_staleness;
    const auto site_timeout = core::QueryConfig{}.site_timeout;

    const auto topic =
        core::site_topic(cluster.tree_specs()[0].canonical, "Site1");
    const auto root = cluster.overlay().root_of_in_site(topic, kVictimSite);
    const auto epoch_before = cluster.node(root).scribe().root_epoch_of(topic);
    ASSERT_GT(epoch_before, 0u);

    // Crash mid-aggregation: half an interval after the last round fired.
    cluster.run_for(SimTime::millis(100));
    cluster.overlay().fail_node(root);
    cluster.run();  // zero-delay replica promotion

    // Originator: a live Site1 member (never the dead root).
    std::size_t from = SIZE_MAX;
    for (const auto i : cluster.nodes_in_site(kVictimSite)) {
      if (!cluster.overlay().is_failed(i)) {
        from = i;
        break;
      }
    }
    ASSERT_NE(from, SIZE_MAX);

    const auto outcome = count_site1(cluster, from);
    EXPECT_TRUE(outcome.satisfied) << outcome.error;
    EXPECT_TRUE(outcome.stale) << "promoted root should serve the replicated snapshot";
    EXPECT_LE(outcome.staleness, max_staleness);
    EXPECT_LE(outcome.latency(), site_timeout)
        << "degraded read must beat the site timeout, not ride it";
    EXPECT_DOUBLE_EQ(outcome.count, static_cast<double>(kPerSite))
        << "stale snapshot still counts the dead root";

    // The promoted root's epoch never regresses past the old root's.
    const auto new_root = cluster.overlay().root_of_in_site(topic, kVictimSite);
    ASSERT_FALSE(cluster.overlay().is_failed(new_root));
    EXPECT_GE(cluster.node(new_root).scribe().root_epoch_of(topic), epoch_before);

    // Degraded window closes: the fresh roll-up excludes the dead root.
    cluster.run_for(SimTime::seconds(6));
    const auto fresh = count_site1(cluster, from);
    EXPECT_TRUE(fresh.satisfied) << fresh.error;
    EXPECT_FALSE(fresh.stale);
    EXPECT_DOUBLE_EQ(fresh.count, static_cast<double>(kPerSite - 1));

    EXPECT_GE(cluster.metrics()->fed().counter<"scribe.root_failovers">().value(), 1u);
    EXPECT_GE(cluster.metrics()->fed().counter<"query.stale_answers">().value(), 1u);
  }
}

TEST(FailoverChaos, PartitionHealReconvergesAggregatesOnEverySeed) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto cluster = make_cluster(seed);
    populate(cluster);

    FaultInjector injector{cluster};
    auto schedule = parse_schedule(
        "at 0ms    partition Site0 Site1\n"
        "at 200ms  crash-random 0.08\n"
        "at 1500ms heal Site0 Site1\n"
        "at 1800ms recover-all\n");
    ASSERT_TRUE(schedule.ok()) << schedule.error();
    ASSERT_TRUE(injector.arm(schedule.value()).ok());

    cluster.run_for(SimTime::seconds(10));
    cluster.run();

    const auto report = check_all(cluster);
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n"
                             << report.to_string() << "applied fault log:\n"
                             << injector.log_text();
  }
}

}  // namespace
}  // namespace rbay::fault
