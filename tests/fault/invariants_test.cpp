// Invariant-checker library tests: a healthy federation passes every
// checker, and each checker actually fires on the broken state it exists
// to catch (planted via god-view access, with repair disabled so the
// breakage persists to the observation point).

#include <gtest/gtest.h>

#include "core/query_interface.hpp"
#include "fault/invariants.hpp"

namespace rbay::fault {
namespace {

using util::SimTime;

core::ClusterConfig make_config(bool heartbeat, std::uint64_t seed = 99) {
  core::ClusterConfig config;
  config.topology = net::Topology::single_site();
  config.seed = seed;
  config.node.scribe.aggregation_interval = SimTime::millis(200);
  if (heartbeat) config.node.scribe.heartbeat_interval = SimTime::millis(250);
  return config;
}

struct Fixture {
  core::RBayCluster cluster;

  /// `gpu_nodes` of the `n` nodes post GPU=true (and join the tree).
  Fixture(std::size_t n, bool heartbeat, std::size_t gpu_nodes = SIZE_MAX)
      : cluster(make_config(heartbeat)) {
    cluster.add_tree_spec(core::TreeSpec::from_predicate(
        {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
    for (std::size_t i = 0; i < n; ++i) cluster.add_node(0);
    for (std::size_t i = 0; i < std::min(n, gpu_nodes); ++i) {
      EXPECT_TRUE(cluster.node(i).post("GPU", true).ok());
    }
    cluster.finalize();
  }

  [[nodiscard]] scribe::TopicId topic() {
    return cluster.node(0).topic_of(cluster.tree_specs()[0]);
  }
};

TEST(Invariants, HealthyClusterPassesAllCheckers) {
  Fixture f{24, /*heartbeat=*/true};
  f.cluster.run_for(SimTime::seconds(3));
  const auto report = check_all(f.cluster);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.to_string(), "all invariants hold");
}

TEST(Invariants, ChildConsistencyFlagsDeadChildWhenRepairIsOff) {
  Fixture f{20, /*heartbeat=*/false};
  f.cluster.run_for(SimTime::seconds(1));
  const auto topic = f.topic();

  // Kill a non-root member: with heartbeats disabled nothing ever prunes
  // its parent's ChildState entry.
  const auto root = f.cluster.overlay().root_of_in_site(topic, 0);
  const std::size_t victim = root == 0 ? 1 : 0;
  f.cluster.overlay().fail_node(victim);
  f.cluster.run_for(SimTime::seconds(1));

  const auto report = check_child_consistency(f.cluster);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("dead child"), std::string::npos)
      << report.to_string();
}

TEST(Invariants, AggregateCheckerFlagsStaleRollupWhenRepairIsOff) {
  Fixture f{20, /*heartbeat=*/false};
  f.cluster.run_for(SimTime::seconds(1));
  const auto topic = f.topic();

  const auto root = f.cluster.overlay().root_of_in_site(topic, 0);
  const std::size_t victim = root == 0 ? 1 : 0;
  f.cluster.overlay().fail_node(victim);
  // Aggregation rounds keep summing the dead child's last report, so the
  // root's roll-up stays one above the live ground truth.
  f.cluster.run_for(SimTime::seconds(1));

  const auto report = check_aggregates(f.cluster);
  ASSERT_FALSE(report.ok()) << "roll-up should disagree with live member count";
  EXPECT_NE(report.to_string().find("aggregate"), std::string::npos);
}

TEST(Invariants, RepairClearsThePlantedViolations) {
  // Same breakage as above but with heartbeats on: prune + rejoin converge
  // and every checker goes green again — the harness can tell repair from
  // no-repair.
  Fixture f{20, /*heartbeat=*/true};
  f.cluster.run_for(SimTime::seconds(1));
  const auto topic = f.topic();
  const auto root = f.cluster.overlay().root_of_in_site(topic, 0);
  const std::size_t victim = root == 0 ? 1 : 0;
  f.cluster.overlay().fail_node(victim);
  f.cluster.run_for(SimTime::seconds(4));  // several miss budgets

  const auto report = check_all(f.cluster);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Invariants, ReservationCheckerFlagsPendingHoldAndCrashReleaseFreesDeadHolders) {
  // Ten GPU nodes; the querying node 15 is not a member, so the reserved
  // target is never the originator itself.
  Fixture f{20, /*heartbeat=*/true, /*gpu_nodes=*/10};
  f.cluster.run_for(SimTime::seconds(2));

  core::QueryOutcome outcome;
  f.cluster.node(15).query().execute_sql(
      "SELECT 1 FROM * WHERE GPU = true",
      [&](const core::QueryOutcome& o) { outcome = o; });
  f.cluster.run();
  ASSERT_TRUE(outcome.satisfied) << outcome.error;
  ASSERT_EQ(outcome.nodes.size(), 1u);

  // Un-dispositioned anycast hold: pending at the observation point, and
  // the report names the hold's own expiry, still in the future.
  const auto resource = f.cluster.index_of(outcome.nodes[0].node.id);
  const auto& lock = f.cluster.node(resource).lock();
  const auto now = f.cluster.engine().now();
  EXPECT_GT(lock.hold_expiry(), now);
  EXPECT_LE(lock.hold_expiry(), outcome.finished + core::QueryConfig{}.reservation_hold);
  auto report = check_reservations(f.cluster);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("pending"), std::string::npos) << report.to_string();
  const auto expires = "(expires " + std::to_string(lock.hold_expiry().as_millis()) + "ms)";
  EXPECT_NE(report.to_string().find(expires), std::string::npos) << report.to_string();

  // Committed (indefinite) lease whose holder node then dies: the
  // cluster's crash-release hook frees the resource the moment the crash
  // is detected — without it this lease would leak forever and the
  // checker would flag a dead holder.
  f.cluster.node(15).query().commit(outcome);
  f.cluster.run();
  f.cluster.overlay().fail_node(15);
  EXPECT_FALSE(f.cluster.node(resource).lock().holder().has_value())
      << "crash-release hook left the crashed holder's lease in place";
  report = check_reservations(f.cluster);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // Recovery keeps the pool clean.
  f.cluster.overlay().recover_node(15);
  f.cluster.node(15).reevaluate_subscriptions();
  f.cluster.run();
  report = check_reservations(f.cluster);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Invariants, PastryCheckerAcceptsHealthyOverlayAndSeesPlantedDeadRef) {
  sim::Engine engine{7};
  pastry::Overlay overlay{engine, net::Topology::single_site()};
  overlay.populate(12);
  overlay.build_static();
  EXPECT_TRUE(check_pastry(overlay).ok());

  // Plant a stale reference: fail a node, then re-teach it to a survivor
  // behind the overlay's back.
  const std::size_t dead = 5;
  overlay.fail_node(dead);
  overlay.node(dead == 0 ? 1 : 0).learn(overlay.ref(dead));
  const auto report = check_pastry(overlay);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("dead"), std::string::npos) << report.to_string();
}

TEST(Invariants, ReportMergeAndFormatting) {
  InvariantReport a;
  a.add("tree-reachability", "member 3 unreachable");
  InvariantReport b;
  b.add("aggregate", "root reports 7, live members = 6");
  a.merge(std::move(b));
  ASSERT_EQ(a.violations.size(), 2u);
  const auto text = a.to_string();
  EXPECT_NE(text.find("2 invariant violation(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("[tree-reachability]"), std::string::npos) << text;
  EXPECT_NE(text.find("[aggregate]"), std::string::npos) << text;
}

}  // namespace
}  // namespace rbay::fault
