#include <gtest/gtest.h>

#include "scribe/scribe_helpers.hpp"

namespace rbay::scribe {
namespace {

using testing::ScribeOverlay;
using util::SimTime;

TEST(Aggregate, CombineFunctions) {
  EXPECT_DOUBLE_EQ(combine(AggregateKind::Count, 2, 3), 5.0);
  EXPECT_DOUBLE_EQ(combine(AggregateKind::Sum, 2.5, 3.5), 6.0);
  EXPECT_DOUBLE_EQ(combine(AggregateKind::Min, 2, 3), 2.0);
  EXPECT_DOUBLE_EQ(combine(AggregateKind::Max, 2, 3), 3.0);
}

ScribeConfig agg_config() {
  ScribeConfig cfg;
  cfg.aggregation_interval = SimTime::millis(100);
  return cfg;
}

TEST(Aggregate, CountConvergesToTreeSize) {
  ScribeOverlay so{30, net::Topology::single_site(), agg_config()};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  // Let several aggregation rounds roll values up the tree (depth ≤ log N).
  so.engine.run_for(SimTime::seconds(2));
  const auto root = so.overlay.root_of(topic);
  EXPECT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 30.0);
}

TEST(Aggregate, SumAggregatesContributions) {
  ScribeOverlay so{10, net::Topology::single_site(), agg_config()};
  const TopicId topic = pastry::tree_id("CPU", "admin");
  for (std::size_t i = 0; i < so.members.size(); ++i) {
    so.members[i]->set_contribution(static_cast<double>(i));  // 0..9 → sum 45
  }
  so.subscribe_all(topic);
  for (auto& s : so.scribes) s->set_aggregation(topic, AggregateKind::Sum);
  so.engine.run_for(SimTime::seconds(2));
  const auto root = so.overlay.root_of(topic);
  EXPECT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 45.0);
}

TEST(Aggregate, MinAndMaxRollUp) {
  ScribeOverlay so{12, net::Topology::single_site(), agg_config()};
  const TopicId tmin = pastry::tree_id("min-attr", "a");
  const TopicId tmax = pastry::tree_id("max-attr", "a");
  for (std::size_t i = 0; i < so.members.size(); ++i) {
    so.members[i]->set_contribution(10.0 + static_cast<double>(i));  // 10..21
  }
  so.subscribe_all(tmin);
  so.subscribe_all(tmax);
  for (auto& s : so.scribes) {
    s->set_aggregation(tmin, AggregateKind::Min);
    s->set_aggregation(tmax, AggregateKind::Max);
  }
  so.engine.run_for(SimTime::seconds(2));
  EXPECT_DOUBLE_EQ(so.scribes[so.overlay.root_of(tmin)]->aggregate_value(tmin), 10.0);
  EXPECT_DOUBLE_EQ(so.scribes[so.overlay.root_of(tmax)]->aggregate_value(tmax), 21.0);
}

TEST(Aggregate, SizeProbeAnswersFromRoot) {
  ScribeOverlay so{25, net::Topology::single_site(), agg_config()};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(2));
  double size = -1;
  so.scribes[3]->probe_size(topic, [&](const Scribe::SizeInfo* i) { if (i != nullptr) size = i->value; });
  so.engine.run();
  EXPECT_DOUBLE_EQ(size, 25.0);
}

TEST(Aggregate, SizeProbeOnEmptyTopicReturnsZero) {
  ScribeOverlay so{10, net::Topology::single_site(), agg_config()};
  const TopicId topic = pastry::tree_id("empty", "x");
  double size = -1;
  so.scribes[0]->probe_size(topic, [&](const Scribe::SizeInfo* i) { if (i != nullptr) size = i->value; });
  so.engine.run();
  EXPECT_DOUBLE_EQ(size, 0.0);
}

TEST(Aggregate, CountTracksMembershipChanges) {
  ScribeOverlay so{20, net::Topology::single_site(), agg_config()};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(2));
  const auto root = so.overlay.root_of(topic);
  ASSERT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 20.0);
  // Five members leave (but not the root, whose own contribution changes
  // are not under test here).
  int left = 0;
  for (std::size_t i = 0; i < so.overlay.size() && left < 5; ++i) {
    if (i == root) continue;
    so.scribes[i]->unsubscribe(topic);
    ++left;
  }
  so.engine.run_for(SimTime::seconds(2));
  EXPECT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 15.0);
}

TEST(Repair, ChildRejoinsAfterParentFailure) {
  ScribeConfig cfg;
  cfg.aggregation_interval = SimTime::millis(100);
  cfg.heartbeat_interval = SimTime::millis(200);
  ScribeOverlay so{24, net::Topology::single_site(), cfg};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(1));
  ASSERT_TRUE(so.tree_is_consistent(topic));

  // Kill an interior node (one that has children).
  std::size_t victim = SIZE_MAX;
  const auto root = so.overlay.root_of(topic);
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    if (i != root && !so.scribes[i]->children_of(topic).empty()) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, SIZE_MAX) << "no interior node found";
  so.overlay.fail_node(victim);

  // Heartbeats stop flowing from the victim; children must rejoin within a
  // few heartbeat periods.
  so.engine.run_for(SimTime::seconds(5));

  // Every live member must again have a parent chain to the root.
  const auto new_root = so.overlay.root_of(topic);
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    if (i == victim || !so.scribes[i]->subscribed(topic)) continue;
    std::size_t at = i;
    int steps = 0;
    bool reached = true;
    while (at != new_root) {
      const auto parent = so.scribes[at]->parent_of(topic);
      if (!parent || so.overlay.is_failed(so.overlay.index_of(parent->id))) {
        reached = false;
        break;
      }
      at = so.overlay.index_of(parent->id);
      if (++steps > 64) {
        reached = false;
        break;
      }
    }
    EXPECT_TRUE(reached) << "member " << i << " lost connectivity after repair";
  }

  // And multicast flows again to all live members.
  for (auto& m : so.members) m->multicasts.clear();
  so.scribes[(victim + 1) % so.overlay.size()]->multicast(topic, "post-repair");
  so.engine.run_for(SimTime::seconds(1));
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    if (i == victim) continue;
    EXPECT_FALSE(so.members[i]->multicasts.empty()) << "member " << i;
  }
}

}  // namespace
}  // namespace rbay::scribe
