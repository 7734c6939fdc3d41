#include <gtest/gtest.h>

#include "scribe/scribe_helpers.hpp"

namespace rbay::scribe {
namespace {

using testing::ScribeOverlay;

TEST(ScribeTree, SingleSubscriberBecomesRootOrChild) {
  ScribeOverlay so{16};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  bool joined = false;
  so.scribes[0]->subscribe(topic, so.members[0].get(), [&] { joined = true; });
  so.engine.run();
  EXPECT_TRUE(joined);
  EXPECT_TRUE(so.scribes[0]->subscribed(topic));
  EXPECT_TRUE(so.tree_is_consistent(topic));
}

TEST(ScribeTree, RootIsPastryRootOfTopicId) {
  ScribeOverlay so{32};
  const TopicId topic = pastry::tree_id("Matlab", "admin");
  so.subscribe_all(topic);
  const auto root = so.overlay.root_of(topic);
  EXPECT_TRUE(so.scribes[root]->is_root_of(topic));
  EXPECT_FALSE(so.scribes[root]->parent_of(topic).has_value());
}

TEST(ScribeTree, AllSubscribersFormOneTree) {
  ScribeOverlay so{48};
  const TopicId topic = pastry::tree_id("CPU_util<10%", "admin");
  so.subscribe_all(topic);
  EXPECT_TRUE(so.tree_is_consistent(topic));
}

TEST(ScribeTree, MulticastReachesEveryMember) {
  ScribeOverlay so{40};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.scribes[7]->multicast(topic, "expose after 22:00");
  so.engine.run();
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    ASSERT_EQ(so.members[i]->multicasts.size(), 1u) << "member " << i;
    EXPECT_EQ(so.members[i]->multicasts[0].second, "expose after 22:00");
  }
}

TEST(ScribeTree, MulticastToSubsetOnlyReachesMembers) {
  ScribeOverlay so{30};
  const TopicId topic = pastry::tree_id("FPGA", "admin");
  // Only even nodes subscribe.
  for (std::size_t i = 0; i < so.overlay.size(); i += 2) {
    so.scribes[i]->subscribe(topic, so.members[i].get());
  }
  so.engine.run();
  so.scribes[0]->multicast(topic, "cmd");
  so.engine.run();
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(so.members[i]->multicasts.size(), 1u) << "member " << i;
    } else {
      EXPECT_TRUE(so.members[i]->multicasts.empty()) << "non-member " << i;
    }
  }
}

TEST(ScribeTree, UnsubscribeStopsMulticastDelivery) {
  ScribeOverlay so{20};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.scribes[5]->unsubscribe(topic);
  so.engine.run();
  so.scribes[0]->multicast(topic, "x");
  so.engine.run();
  EXPECT_TRUE(so.members[5]->multicasts.empty());
  // Everyone else still gets it.
  int got = 0;
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    if (!so.members[i]->multicasts.empty()) ++got;
  }
  EXPECT_EQ(got, static_cast<int>(so.overlay.size()) - 1);
}

TEST(ScribeTree, LeavePrunesEmptyForwarders) {
  ScribeOverlay so{25};
  const TopicId topic = pastry::tree_id("rare-device", "admin");
  so.scribes[3]->subscribe(topic, so.members[3].get());
  so.engine.run();
  so.scribes[3]->unsubscribe(topic);
  so.engine.run();
  // After the lone member leaves, no node should still carry children for
  // the topic (the root may remember nothing).
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    EXPECT_TRUE(so.scribes[i]->children_of(topic).empty()) << "node " << i;
  }
}

TEST(ScribeTree, ResubscribeAfterLeaveWorks) {
  ScribeOverlay so{20};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.scribes[2]->unsubscribe(topic);
  so.engine.run();
  so.scribes[2]->subscribe(topic, so.members[2].get());
  so.engine.run();
  so.scribes[0]->multicast(topic, "again");
  so.engine.run();
  EXPECT_FALSE(so.members[2]->multicasts.empty());
}

TEST(ScribeTree, ManyTopicsCoexist) {
  ScribeOverlay so{24};
  std::vector<TopicId> topics;
  for (int t = 0; t < 23; ++t) {
    topics.push_back(pastry::tree_id("instance-" + std::to_string(t), "ec2"));
  }
  for (const auto& topic : topics) so.subscribe_all(topic);
  for (const auto& topic : topics) {
    EXPECT_TRUE(so.tree_is_consistent(topic));
  }
  // Tree roots should spread across nodes (uniform TreeIds), not pile on one.
  std::vector<int> root_count(so.overlay.size(), 0);
  for (const auto& topic : topics) root_count[so.overlay.root_of(topic)]++;
  const int max_roots = *std::max_element(root_count.begin(), root_count.end());
  EXPECT_LE(max_roots, 8) << "tree roots are badly concentrated";
}

TEST(ScribeTree, HeartbeatPrunesChildThatAttachedAtTimeZeroAndNeverAcks) {
  // Regression: the prune loop used to skip children with last_seen == 0,
  // so a child that attached at t=0 and then went silent was immortal.
  // Only node A gets a Scribe; B exists as a pastry endpoint but runs no
  // scribe app, so it can never answer heartbeats.
  sim::Engine engine{7};
  pastry::Overlay overlay{engine, net::Topology::single_site()};
  auto& a = overlay.create_node(0);
  auto& b = overlay.create_node(0);
  overlay.build_static();

  ScribeConfig config;
  config.heartbeat_interval = util::SimTime::millis(100);  // misses = 3
  Scribe scribe{a, config};

  const TopicId topic = pastry::tree_id("GPU", "admin");
  JoinMsg join;
  join.topic = topic;
  join.child = b.self();
  scribe.deliver(topic, join, 0);  // ChildState stamped last_seen = 0
  ASSERT_EQ(scribe.children_of(topic).size(), 1u);

  // Miss budget is interval * (misses + 1) = 400 ms from attach time.
  engine.run_for(util::SimTime::seconds(1));
  EXPECT_TRUE(scribe.children_of(topic).empty())
      << "silent child attached at t=0 was never pruned";
}

}  // namespace
}  // namespace rbay::scribe
