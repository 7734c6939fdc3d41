// Hot-tree load balancing: fan-in caps split overloaded aggregation-tree
// nodes by delegating surplus children to leaf-set picks, and root-set
// rotation spreads size-probe answers across serving replica holders —
// without changing any aggregate a probe reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "scribe/scribe_helpers.hpp"

namespace rbay::scribe {
namespace {

using testing::ScribeOverlay;
using util::SimTime;

ScribeConfig capped_config(int cap, int root_set = 0) {
  ScribeConfig cfg;
  cfg.aggregation_interval = SimTime::millis(100);
  cfg.heartbeat_interval = SimTime::millis(250);
  cfg.max_staleness = SimTime::seconds(5);
  cfg.fan_in_cap = cap;
  cfg.root_set = root_set;
  return cfg;
}

std::uint64_t total_splits(const ScribeOverlay& so) {
  std::uint64_t n = 0;
  for (const auto& s : so.scribes) n += s->split_count();
  return n;
}

std::uint64_t total_delegations(const ScribeOverlay& so) {
  std::uint64_t n = 0;
  for (const auto& s : so.scribes) n += s->delegation_count();
  return n;
}

TEST(Split, FanInCapBoundsEveryNodeAndPreservesTheAggregate) {
  constexpr int kCap = 4;
  ScribeOverlay so{32, net::Topology::single_site(), capped_config(kCap)};
  obs::Registry reg;
  so.engine.set_metrics(&reg);
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(3));

  // The cap forced at least one overload to delegate.
  EXPECT_GT(total_splits(so), 0u);
  EXPECT_GT(total_delegations(so), 0u);
  EXPECT_EQ(reg.fed().counter<"scribe.splits">().value(), total_splits(so));
  EXPECT_EQ(reg.fed().counter<"scribe.delegations">().value(), total_delegations(so));

  // No node exceeds the cap at quiescence, and the tree stays one
  // consistent parent-linked structure.
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    EXPECT_LE(so.scribes[i]->children_of(topic).size(), static_cast<std::size_t>(kCap))
        << "node " << i << " still over the fan-in cap";
  }
  EXPECT_TRUE(so.tree_is_consistent(topic));

  // Delegation re-shapes the tree, never the aggregate.
  const auto root = so.overlay.root_of(topic);
  EXPECT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 32.0);
}

TEST(Split, LooseCapNeverSplits) {
  ScribeOverlay so{16, net::Topology::single_site(), capped_config(64)};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(2));
  EXPECT_EQ(total_splits(so), 0u);
  EXPECT_EQ(total_delegations(so), 0u);
}

TEST(Split, DelegatedSubtreeSurvivesDelegateCrash) {
  constexpr int kCap = 3;
  ScribeOverlay so{32, net::Topology::single_site(), capped_config(kCap)};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(3));
  ASSERT_GT(total_delegations(so), 0u);

  // Crash an interior non-root node (a delegate or any forwarder): its
  // children heartbeat-repair back into the tree and the cap still holds.
  const auto root = so.overlay.root_of(topic);
  std::size_t victim = SIZE_MAX;
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    if (i == root) continue;
    if (!so.scribes[i]->children_of(topic).empty()) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, SIZE_MAX) << "a capped 32-node tree must have interior nodes";
  so.overlay.fail_node(victim);
  so.engine.run_for(SimTime::seconds(4));

  EXPECT_TRUE(so.tree_is_consistent(topic));
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    if (so.overlay.is_failed(i)) continue;
    EXPECT_LE(so.scribes[i]->children_of(topic).size(), static_cast<std::size_t>(kCap));
  }
  EXPECT_DOUBLE_EQ(so.scribes[so.overlay.root_of(topic)]->aggregate_value(topic), 31.0);
}

TEST(Split, DuplicateStormCannotDoubleCountDelegations) {
  // Regression: before the delegation protocol carried split episodes, a
  // duplicated DelegateAck re-applied the whole ack path — re-erasing the
  // accepted children, re-counting the delegation, and re-linking the
  // delegate — and a duplicated ReparentMsg made the child decline its own
  // live parent with a Leave.  Run the capped-split workload with the link
  // conditioner delivering EVERY message twice (plus reordering) and check
  // the dedup guards keep the tree and the books straight.
  constexpr int kCap = 4;
  ScribeOverlay so{32, net::Topology::single_site(), capped_config(kCap)};
  obs::Registry reg;
  so.engine.set_metrics(&reg);
  auto& weather = so.overlay.network().conditioner();
  weather.set_duplicate(0, 0, 1.0);
  weather.set_reorder(0, 0, 0.5, SimTime::millis(5));

  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(4));

  // The storm really exercised the guards: duplicates were delivered and
  // at least one reached an idempotence check.
  EXPECT_GT(so.overlay.network().stats().duplicated, 0u);
  EXPECT_GT(reg.fed().counter<"scribe.dup_suppressed">().value(), 0u);

  // Heal the weather and let repair settle, then the usual split
  // invariants must hold exactly as in the clean-network test.
  weather.clear_all();
  so.engine.run_for(SimTime::seconds(2));

  EXPECT_GT(total_splits(so), 0u);
  EXPECT_GT(total_delegations(so), 0u);
  // Every delegation the metric saw is one the per-node books saw: a
  // double-applied ack would inflate the counter past the reconciled sum.
  EXPECT_EQ(reg.fed().counter<"scribe.delegations">().value(), total_delegations(so));
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    EXPECT_LE(so.scribes[i]->children_of(topic).size(), static_cast<std::size_t>(kCap))
        << "node " << i << " over the fan-in cap after the storm";
  }
  EXPECT_TRUE(so.tree_is_consistent(topic));
  const auto root = so.overlay.root_of(topic);
  EXPECT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 32.0)
      << "duplication must reshape delivery, never the aggregate";
}

TEST(Split, RootSetRotationServesProbesFromReplicaHolders) {
  ScribeOverlay so{24, net::Topology::single_site(), capped_config(0, /*root_set=*/2)};
  obs::Registry reg;
  so.engine.set_metrics(&reg);
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(2));

  const auto root = so.overlay.root_of(topic);
  const std::size_t prober = root == 0 ? 1 : 0;
  std::uint64_t rotated = 0;
  for (int round = 0; round < 6; ++round) {
    Scribe::SizeInfo info;
    bool done = false;
    so.scribes[prober]->probe_size(topic, [&](const Scribe::SizeInfo* i) {
      ASSERT_NE(i, nullptr) << "probe missed its deadline";
      info = *i;
      done = true;
    });
    so.engine.run();
    ASSERT_TRUE(done);
    // Rotated or not, the answer always reports the full tree.
    EXPECT_DOUBLE_EQ(info.value, 24.0);
    if (info.from_root_set) {
      ++rotated;
      EXPECT_TRUE(info.stale) << "root-set answers are staleness-bounded replica reads";
      EXPECT_LE(info.age, capped_config(0, 2).max_staleness);
    }
  }
  EXPECT_GT(rotated, 0u) << "round-robin fan-out never reached a serving holder";
  std::uint64_t rotations = 0;
  for (const auto& s : so.scribes) rotations += s->rotation_count();
  EXPECT_EQ(rotations, rotated);
  EXPECT_EQ(reg.fed().counter<"scribe.rotations">().value(), rotated);
  EXPECT_GT(reg.fed().counter<"scribe.rootset_probes">().value(), 0u);
}

TEST(Split, DeadRosterMemberFallsBackToRoutingInsteadOfAnsweringEmpty) {
  auto cfg = capped_config(0, /*root_set=*/2);
  cfg.anycast_timeout = SimTime::millis(500);
  ScribeOverlay so{24, net::Topology::single_site(), cfg};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(2));

  const auto root = so.overlay.root_of(topic);
  const std::size_t prober = root == 0 ? 1 : 0;
  // Warm the prober's roster cache with one answered probe.
  bool done = false;
  so.scribes[prober]->probe_size(topic, [&](const Scribe::SizeInfo*) { done = true; });
  so.engine.run();
  ASSERT_TRUE(done);

  // Kill the root: the cached roster still names it, so round-robin fans
  // some probes at a dead member.  Those must retry through routing (which
  // steers around failures) rather than time out to an empty answer.
  so.overlay.fail_node(root);
  so.engine.run();  // drain the zero-delay replica promotion
  for (int round = 0; round < 4; ++round) {
    Scribe::SizeInfo info;
    done = false;
    so.scribes[prober]->probe_size(topic, [&](const Scribe::SizeInfo* i) {
      ASSERT_NE(i, nullptr) << "probe missed its deadline";
      info = *i;
      done = true;
    });
    so.engine.run();
    ASSERT_TRUE(done);
    EXPECT_GT(info.value, 0.0) << "probe round " << round << " answered empty";
  }
}

// A serving holder whose replica aged past max_staleness cannot answer a
// direct probe: it routes the probe on toward the root, which answers the
// originator.  One probe leaves the prober, one reply comes back, and the
// holder never answers.
TEST(Split, StaleHolderRoutesADirectProbeOnToTheRoot) {
  auto cfg = capped_config(0, /*root_set=*/2);
  cfg.heartbeat_interval = SimTime::zero();  // nothing but root replicas on the wire
  ScribeOverlay so{24, net::Topology::single_site(), cfg};
  obs::Registry reg;
  so.engine.set_metrics(&reg);
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(2));

  // The roster, root first, as every serving holder holds it.
  const auto root = so.overlay.root_of(topic);
  std::vector<NodeRef> roster;
  for (const auto& s : so.scribes) {
    if (const auto* rep = s->replica_of(topic); rep != nullptr && rep->serve) {
      roster = rep->root_set;
      break;
    }
  }
  ASSERT_EQ(roster.size(), 3u);
  ASSERT_EQ(roster[0].id, so.overlay.ref(root).id);
  const auto holder = so.overlay.index_of(roster[1].id);
  std::size_t prober = 0;
  while (std::any_of(roster.begin(), roster.end(),
                     [&](const NodeRef& r) { return r.id == so.overlay.ref(prober).id; })) {
    ++prober;
  }

  // Lose every root refresh until the holder's replica is older than
  // max_staleness, stopping just after one, so the next is a full
  // refresh interval away.
  const auto* replica = so.scribes[holder]->replica_of(topic);
  ASSERT_NE(replica, nullptr);
  so.overlay.network().set_drop_probability(1.0);
  do {
    const auto wake = so.scribes[root]->next_round();
    ASSERT_TRUE(wake.has_value());
    so.engine.run_until(*wake + SimTime::millis(1));
  } while (so.engine.now() - replica->snapshot_time <= cfg.max_staleness);
  so.overlay.network().set_drop_probability(0.0);

  auto probe = [&] {
    std::optional<Scribe::SizeInfo> info;
    so.scribes[prober]->probe_size(topic, [&](const Scribe::SizeInfo* i) {
      ASSERT_NE(i, nullptr) << "probe missed its deadline";
      info = *i;
    });
    so.engine.run();
    return info;
  };
  // Warm the roster: a routed probe learns it from the root, and the next
  // goes to the root directly, so round-robin's third pick is the holder.
  ASSERT_TRUE(probe().has_value());
  ASSERT_TRUE(probe().has_value());

  const auto& net = so.overlay.network();
  const auto prober_ep = so.overlay.ref(prober).endpoint;
  const auto sent0 = net.endpoint_stats(prober_ep).sent;
  const auto received0 = net.endpoint_stats(prober_ep).received;
  const auto direct0 = reg.fed().counter<"scribe.rootset_probes">().value();
  const auto rotations0 = so.scribes[holder]->rotation_count();
  const auto info = probe();
  ASSERT_TRUE(info.has_value());
  ASSERT_GT(so.engine.now() - replica->snapshot_time, cfg.max_staleness)
      << "a refresh reached the holder before the probe";
  EXPECT_EQ(reg.fed().counter<"scribe.rootset_probes">().value() - direct0, 1u);
  EXPECT_DOUBLE_EQ(info->value, 24.0) << "the root's full count";
  EXPECT_FALSE(info->from_root_set);
  EXPECT_EQ(net.endpoint_stats(prober_ep).sent - sent0, 1u) << "exactly one SizeProbe";
  EXPECT_EQ(net.endpoint_stats(prober_ep).received - received0, 1u)
      << "only the root's SizeReply, none from the holder";
  EXPECT_EQ(so.scribes[holder]->rotation_count(), rotations0);
}

}  // namespace
}  // namespace rbay::scribe
