#include <gtest/gtest.h>

#include "core/churn.hpp"

namespace rbay::core {
namespace {

using util::SimTime;

ClusterConfig churn_cluster_config() {
  ClusterConfig config;
  config.topology = net::Topology::single_site();
  config.seed = 1234;
  config.node.scribe.aggregation_interval = SimTime::millis(250);
  config.node.scribe.heartbeat_interval = SimTime::millis(500);
  config.node.query.max_attempts = 4;
  return config;
}

struct ChurnFixture {
  RBayCluster cluster;

  explicit ChurnFixture(std::size_t n) : cluster(churn_cluster_config()) {
    cluster.add_tree_spec(TreeSpec::from_predicate(
        {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
    for (std::size_t i = 0; i < n; ++i) cluster.add_node(0);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(cluster.node(i).post("GPU", true).ok());
      EXPECT_TRUE(cluster.node(i).post("reliability", 1.0).ok());
    }
    cluster.finalize();
  }
};

TEST(Recovery, RecoveredNodeRejoinsOverlayAndTrees) {
  ChurnFixture f{30};
  f.cluster.run_for(SimTime::seconds(2));
  const auto& spec = f.cluster.tree_specs()[0];

  f.cluster.overlay().fail_node(7);
  f.cluster.run_for(SimTime::seconds(5));  // tree repairs around the hole
  f.cluster.overlay().recover_node(7);
  f.cluster.node(7).reevaluate_subscriptions();
  f.cluster.run_for(SimTime::seconds(5));  // heartbeats re-integrate it

  EXPECT_FALSE(f.cluster.overlay().is_failed(7));
  EXPECT_TRUE(f.cluster.node(7).subscribed_to(spec));
  // A multicast reaches the recovered node again.
  f.cluster.node(0).admin_deliver(spec, "GPU", "noop");
  f.cluster.run();
}

TEST(Recovery, RecoveredExRootDoesNotSplitTheTree) {
  ChurnFixture f{40};
  f.cluster.run_for(SimTime::seconds(2));
  const auto& spec = f.cluster.tree_specs()[0];
  const auto topic = f.cluster.node(0).topic_of(spec);

  // Kill the tree root, let the tree repair under the new root, then bring
  // the old root back: it becomes the Pastry root of the topic again and
  // must reclaim the tree rather than fragment it.
  const auto old_root = f.cluster.overlay().root_of_in_site(topic, 0);
  f.cluster.overlay().fail_node(old_root);
  f.cluster.run_for(SimTime::seconds(6));
  f.cluster.overlay().recover_node(old_root);
  f.cluster.node(old_root).reevaluate_subscriptions();
  f.cluster.run_for(SimTime::seconds(8));

  // Aggregated size at the (restored) root must cover every member again.
  double size = -1;
  f.cluster.node(1).scribe().probe_size(
      topic, [&](const scribe::Scribe::SizeInfo* i) { if (i != nullptr) size = i->value; });
  f.cluster.run();
  EXPECT_GE(size, 39.0) << "tree stayed fragmented after ex-root recovery";
}

TEST(Anycast, ReroutesPastDetachedFragments) {
  ChurnFixture f{120};  // enough depth that interior (non-root) tree nodes exist
  f.cluster.run_for(SimTime::seconds(2));
  const auto& spec = f.cluster.tree_specs()[0];
  const auto topic = f.cluster.node(0).topic_of(spec);

  // Detach one member by force: clear it from its parent's children (kill
  // the parent) but query IMMEDIATELY, before repair converges.
  const auto root = f.cluster.overlay().root_of_in_site(topic, 0);
  std::size_t interior = SIZE_MAX;
  for (std::size_t i = 0; i < f.cluster.size(); ++i) {
    if (i != root && !f.cluster.node(i).scribe().children_of(topic).empty()) {
      interior = i;
      break;
    }
  }
  // Fall back to any non-root member if the tree happens to be flat.
  if (interior == SIZE_MAX) interior = root == 0 ? 1 : 0;
  f.cluster.overlay().fail_node(interior);

  // Queries issued right now must still succeed: anycasts that enter a
  // detached fragment re-route toward the rendezvous root.
  int satisfied = 0;
  for (int q = 0; q < 5; ++q) {
    std::size_t from;
    do {
      from = f.cluster.engine().rng().uniform(f.cluster.size());
    } while (f.cluster.overlay().is_failed(from));
    QueryOutcome outcome;
    f.cluster.node(from).query().execute_sql("SELECT 2 FROM * WHERE GPU = true",
                                             [&](const QueryOutcome& o) { outcome = o; });
    f.cluster.run();
    if (outcome.satisfied) {
      ++satisfied;
      f.cluster.node(from).query().release(outcome);
      f.cluster.run();
    }
  }
  EXPECT_GE(satisfied, 4);
}

TEST(ChurnDriver, DrivesFailuresAndRecoveries) {
  ChurnFixture f{40};
  ChurnConfig config;
  config.mean_uptime_s = 30.0;
  config.mean_downtime_s = 5.0;
  config.churny_fraction = 0.5;
  ChurnDriver churn{f.cluster, config};
  churn.start();
  f.cluster.run_for(SimTime::seconds(120));
  EXPECT_GT(churn.failures(), 10u);
  EXPECT_GT(churn.recoveries(), 5u);
  // Gateways are spared.
  const auto gw = f.cluster.index_of(f.cluster.directory().gateways[0].id);
  EXPECT_TRUE(churn.is_gateway(gw));
  EXPECT_FALSE(f.cluster.overlay().is_failed(gw));
}

TEST(ChurnDriver, PublishesReliabilityAttribute) {
  ChurnFixture f{30};
  ChurnConfig config;
  config.mean_uptime_s = 20.0;
  config.mean_downtime_s = 5.0;
  config.churny_fraction = 1.0;  // everyone flaky (except gateway)
  config.churny_penalty = 1.0;
  ChurnDriver churn{f.cluster, config};
  churn.start();
  f.cluster.run_for(SimTime::seconds(300));
  churn.stop();

  int informative = 0;
  for (std::size_t i = 0; i < f.cluster.size(); ++i) {
    if (f.cluster.overlay().is_failed(i)) continue;
    const auto* attr = f.cluster.node(i).attributes().find("reliability");
    ASSERT_NE(attr, nullptr);
    double v = 0;
    ASSERT_TRUE(attr->value().numeric(v));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    if (v < 0.999) ++informative;
  }
  // With 20 s mean uptime over 5 minutes, most nodes have real history.
  EXPECT_GT(informative, 10);
}

TEST(ChurnDriver, QueriesKeepWorkingUnderChurn) {
  ChurnFixture f{50};
  ChurnConfig config;
  config.mean_uptime_s = 60.0;
  config.mean_downtime_s = 10.0;
  config.churny_fraction = 0.3;
  config.churny_penalty = 3.0;
  ChurnDriver churn{f.cluster, config};
  churn.start();
  f.cluster.run_for(SimTime::seconds(60));

  int satisfied = 0;
  for (int q = 0; q < 10; ++q) {
    std::size_t from;
    do {
      from = f.cluster.engine().rng().uniform(f.cluster.size());
    } while (f.cluster.overlay().is_failed(from));
    QueryOutcome outcome;
    f.cluster.node(from).query().execute_sql("SELECT 2 FROM * WHERE GPU = true",
                                             [&](const QueryOutcome& o) { outcome = o; });
    f.cluster.run();
    if (outcome.satisfied) {
      ++satisfied;
      f.cluster.node(from).query().release(outcome);
      f.cluster.run();
    }
    f.cluster.run_for(SimTime::seconds(5));
  }
  EXPECT_GE(satisfied, 8);
}

}  // namespace
}  // namespace rbay::core
