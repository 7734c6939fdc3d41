#include <gtest/gtest.h>

#include "core/cluster.hpp"

namespace rbay::core {
namespace {

ClusterConfig small_config(std::size_t sites = 1) {
  ClusterConfig config;
  config.topology = sites == 1 ? net::Topology::single_site()
                               : net::Topology::uniform(sites, 0.5, 80.0);
  config.node.scribe.aggregation_interval = util::SimTime::millis(100);
  return config;
}

TEST(RBayNode, PostAndSubscribeToMatchingTree) {
  RBayCluster cluster{small_config()};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(10);
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.node(i).post("GPU", i % 2 == 0).ok());  // 5 with GPU
  }
  cluster.finalize();

  const auto& spec = cluster.tree_specs()[0];
  int members = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.node(i).subscribed_to(spec)) ++members;
  }
  EXPECT_EQ(members, 5);
}

TEST(RBayNode, TreeSizeAggregatesMatchMembership) {
  RBayCluster cluster{small_config()};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(12);
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster.node(i).post("GPU", i < 8).ok());
  }
  cluster.finalize();
  cluster.run_for(util::SimTime::seconds(2));  // aggregation rounds

  double size = -1;
  cluster.node(0).scribe().probe_size(cluster.node(0).topic_of(cluster.tree_specs()[0]),
                                      [&](const scribe::Scribe::SizeInfo* i) { if (i != nullptr) size = i->value; });
  cluster.run();
  EXPECT_DOUBLE_EQ(size, 8.0);
}

TEST(RBayNode, ValueChangeTriggersLeaveAndJoin) {
  RBayCluster cluster{small_config()};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}}));
  cluster.populate(8);
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.node(i).post("CPU_utilization", 0.05).ok());
  }
  cluster.finalize();
  const auto& spec = cluster.tree_specs()[0];
  ASSERT_TRUE(cluster.node(3).subscribed_to(spec));

  // Node 3 becomes overloaded: it must leave the CPU<10% tree (the paper's
  // own churn example).
  cluster.node(3).attributes().update_value("CPU_utilization", 0.95);
  cluster.node(3).reevaluate_subscriptions();
  cluster.run();
  EXPECT_FALSE(cluster.node(3).subscribed_to(spec));

  // Load drops again: it rejoins.
  cluster.node(3).attributes().update_value("CPU_utilization", 0.02);
  cluster.node(3).reevaluate_subscriptions();
  cluster.run();
  EXPECT_TRUE(cluster.node(3).subscribed_to(spec));
}

TEST(RBayNode, OnSubscribePolicyGatesExposure) {
  RBayCluster cluster{small_config()};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(4);
  // Grace's policy: only expose after the `after_hours` flag is set.
  ASSERT_TRUE(cluster.node(0).post("GPU", true, R"(
after_hours = false
function onSubscribe(caller, topic)
  if after_hours then return topic end
  return nil
end)").ok());
  for (std::size_t i = 1; i < 4; ++i) ASSERT_TRUE(cluster.node(i).post("GPU", true).ok());
  cluster.finalize();

  const auto& spec = cluster.tree_specs()[0];
  EXPECT_FALSE(cluster.node(0).subscribed_to(spec));
  EXPECT_TRUE(cluster.node(1).subscribed_to(spec));

  // 10 PM arrives: Grace flips the flag; the next re-evaluation joins.
  cluster.node(0).attributes().find("GPU")->script()->set_global(
      "after_hours", aal::Value::boolean(true));
  cluster.node(0).reevaluate_subscriptions();
  cluster.run();
  EXPECT_TRUE(cluster.node(0).subscribed_to(spec));
}

TEST(RBayNode, HiddenAttributeLeavesTree) {
  RBayCluster cluster{small_config()};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(6);
  for (std::size_t i = 0; i < 6; ++i) ASSERT_TRUE(cluster.node(i).post("GPU", true).ok());
  cluster.finalize();
  const auto& spec = cluster.tree_specs()[0];
  ASSERT_TRUE(cluster.node(2).subscribed_to(spec));
  cluster.node(2).set_hidden("GPU", true);
  cluster.run();
  EXPECT_FALSE(cluster.node(2).subscribed_to(spec));
  cluster.node(2).set_hidden("GPU", false);
  cluster.run();
  EXPECT_TRUE(cluster.node(2).subscribed_to(spec));
}

TEST(RBayNode, AdminDeliverUpdatesAllMembers) {
  RBayCluster cluster{small_config()};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(10);
  const std::string pricing_handler = R"(
function onDeliver(caller, payload)
  return tonumber(payload)
end)";
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.node(i).post("GPU", true).ok());
    ASSERT_TRUE(cluster.node(i).post("rental_price", 10, pricing_handler).ok());
  }
  cluster.finalize();

  // Admin raises the rental price across the whole tree with one multicast.
  cluster.node(0).admin_deliver(cluster.tree_specs()[0], "rental_price", "25");
  cluster.run();
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(cluster.node(i).attributes().find("rental_price")->value().as_double(),
                     25.0)
        << "node " << i;
  }
}

TEST(RBayNode, AdminHideCommandPropagates) {
  RBayCluster cluster{small_config()};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(6);
  for (std::size_t i = 0; i < 6; ++i) ASSERT_TRUE(cluster.node(i).post("GPU", true).ok());
  cluster.finalize();
  const auto& spec = cluster.tree_specs()[0];

  cluster.node(0).admin_set_hidden(spec, "GPU", true);
  cluster.run();
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(cluster.node(i).is_hidden("GPU")) << "node " << i;
    EXPECT_FALSE(cluster.node(i).subscribed_to(spec)) << "node " << i;
  }
}

TEST(RBayNode, MonitorDrivenChurn) {
  auto config = small_config();
  config.node.maintenance_interval = util::SimTime::millis(500);
  RBayCluster cluster{config};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.5}}));
  cluster.populate(10);
  for (std::size_t i = 0; i < 10; ++i) {
    auto& node = cluster.node(i);
    node.enable_monitor({{"CPU_utilization", monitor::RandomWalk{0.45, 0.0, 1.0, 0.15}}},
                        util::SimTime::millis(200));
  }
  cluster.finalize();
  cluster.run_for(util::SimTime::seconds(10));

  // With the walk crossing 0.5 repeatedly, membership must track the store.
  const auto& spec = cluster.tree_specs()[0];
  for (std::size_t i = 0; i < 10; ++i) {
    const bool matches =
        cluster.node(i).attributes().find("CPU_utilization")->value().as_double() < 0.5;
    EXPECT_EQ(cluster.node(i).subscribed_to(spec), matches) << "node " << i;
  }
}

TEST(RBayNode, TimeGatedPolicyUsesVirtualClock) {
  // Grace's "after 10 PM" policy, driven by the federation clock: the
  // resource joins its tree only once virtual time passes the gate.
  RBayCluster cluster{small_config()};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(6);
  for (std::size_t i = 1; i < 6; ++i) ASSERT_TRUE(cluster.node(i).post("GPU", true).ok());
  ASSERT_TRUE(cluster.node(0).post("GPU", true, R"(
gate = 30  -- seconds of virtual time
function onSubscribe(caller, topic)
  if now >= gate then return topic end
  return nil
end
function onUnsubscribe(caller, topic)
  if now < gate then return topic end
  return nil
end)").ok());
  cluster.finalize();
  const auto& spec = cluster.tree_specs()[0];
  EXPECT_FALSE(cluster.node(0).subscribed_to(spec));
  cluster.run_for(util::SimTime::seconds(40));
  cluster.resubscribe_all();
  cluster.run();
  EXPECT_TRUE(cluster.node(0).subscribed_to(spec));
}

TEST(RBayNode, PostWithBadHandlerFailsCleanly) {
  RBayCluster cluster{small_config()};
  cluster.populate(1);
  auto result = cluster.node(0).post("GPU", true, "function onGet( oops");
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(cluster.node(0).attributes().contains("GPU"));
}

}  // namespace
}  // namespace rbay::core
