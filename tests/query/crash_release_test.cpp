// Regression: an originator that commits an indefinite lease and then
// crashes must not leave the resource locked forever.  Before the
// cluster's crash-release hook existed this leaked — the dead holder's
// lease had no expiry, nobody could ever reserve the node again, and the
// reservation invariant checker flagged a dead holder.  The hook releases
// every lease held by a query the crashed node originated the moment the
// crash is detected.

#include <gtest/gtest.h>

#include "core/query_interface.hpp"
#include "fault/invariants.hpp"

namespace rbay::core {
namespace {

using util::SimTime;

struct Fixture {
  RBayCluster cluster;

  explicit Fixture(std::uint64_t seed = 17)
      : cluster([seed] {
          ClusterConfig config;
          config.topology = net::Topology::single_site();
          config.seed = seed;
          config.metrics = true;
          config.node.scribe.aggregation_interval = SimTime::millis(200);
          config.node.scribe.heartbeat_interval = SimTime::millis(250);
          return config;
        }()) {
    cluster.add_tree_spec(TreeSpec::from_predicate(
        {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
    for (std::size_t i = 0; i < 20; ++i) cluster.add_node(0);
    // Nodes 0..9 are the reservable pool; the originators (14, 15) are
    // never candidates, so a crash always hits a *remote* holder's lease.
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(cluster.node(i).post("GPU", true).ok());
    }
    cluster.finalize();
    cluster.run_for(SimTime::seconds(2));
  }

  QueryOutcome run_query(std::size_t from) {
    QueryOutcome outcome;
    cluster.node(from).query().execute_sql(
        "SELECT 1 FROM * WHERE GPU = true",
        [&](const QueryOutcome& o) { outcome = o; });
    cluster.run();
    return outcome;
  }
};

TEST(CrashRelease, CommittedIndefiniteLeaseFreedWhenHolderCrashes) {
  Fixture f;
  const auto outcome = f.run_query(15);
  ASSERT_TRUE(outcome.satisfied) << outcome.error;
  ASSERT_EQ(outcome.nodes.size(), 1u);
  f.cluster.node(15).query().commit(outcome);
  f.cluster.run();

  const auto resource = f.cluster.index_of(outcome.nodes[0].node.id);
  ASSERT_TRUE(f.cluster.node(resource).lock().holder().has_value());

  f.cluster.overlay().fail_node(15);
  EXPECT_FALSE(f.cluster.node(resource).lock().holder().has_value())
      << "crashed holder's indefinite lease must be released immediately";
  EXPECT_EQ(f.cluster.metrics()->fed().counter<"reservation.crash_releases">().value(), 1u);

  // The freed node is reservable again, and the checker stays green.
  const auto outcome2 = f.run_query(14);
  EXPECT_TRUE(outcome2.satisfied) << outcome2.error;
  auto report = fault::check_reservations(f.cluster);
  // outcome2's hold is still pending; disposition it before checking.
  f.cluster.node(14).query().release(outcome2);
  f.cluster.run();
  report = fault::check_reservations(f.cluster);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(CrashRelease, PendingHoldFreedWhenOriginatorCrashesBeforeCommit) {
  Fixture f;
  const auto outcome = f.run_query(15);
  ASSERT_TRUE(outcome.satisfied) << outcome.error;
  const auto resource = f.cluster.index_of(outcome.nodes[0].node.id);
  ASSERT_TRUE(f.cluster.node(resource).lock().holder().has_value());

  // Crash before any commit/release disposition: the short-lease hold
  // would expire on its own, but the hook frees it right away.
  f.cluster.overlay().fail_node(15);
  EXPECT_FALSE(f.cluster.node(resource).lock().holder().has_value());
}

TEST(CrashRelease, BystanderCrashLeavesForeignLeasesAlone) {
  Fixture f;
  const auto outcome = f.run_query(15);
  ASSERT_TRUE(outcome.satisfied) << outcome.error;
  f.cluster.node(15).query().commit(outcome);
  f.cluster.run();
  const auto resource = f.cluster.index_of(outcome.nodes[0].node.id);
  const auto holder = f.cluster.node(resource).lock().holder();
  ASSERT_TRUE(holder.has_value());

  // Node 14 never issued a query: its crash must not touch 15's lease.
  f.cluster.overlay().fail_node(14);
  EXPECT_EQ(f.cluster.node(resource).lock().holder(), holder);
  EXPECT_EQ(f.cluster.metrics()->fed().counter<"reservation.crash_releases">().value(), 0u);
}

}  // namespace
}  // namespace rbay::core
