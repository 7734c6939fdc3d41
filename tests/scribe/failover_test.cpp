// Rendezvous failover: root-state replication to leaf-set successors,
// replica promotion when the root crashes, staleness-bounded degraded
// reads, and first-class anycast/size-probe timeouts (the fix for the
// silent waiter leak a dead DFS walk used to cause).

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "scribe/scribe_helpers.hpp"

namespace rbay::scribe {
namespace {

using testing::CollectPayload;
using testing::ScribeOverlay;
using util::SimTime;

ScribeConfig failover_config() {
  ScribeConfig cfg;
  cfg.aggregation_interval = SimTime::millis(100);
  cfg.heartbeat_interval = SimTime::millis(250);
  cfg.max_staleness = SimTime::seconds(5);
  return cfg;
}

/// The single live node claiming rootship of `topic`, or SIZE_MAX.
std::size_t live_root(const ScribeOverlay& so, const TopicId& topic) {
  std::size_t found = SIZE_MAX;
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    if (so.overlay.is_failed(i) || !so.scribes[i]->is_root_of(topic)) continue;
    if (found != SIZE_MAX) return SIZE_MAX;  // two live roots: broken
    found = i;
  }
  return found;
}

TEST(Failover, RootCrashPromotesReplicaHolderServingTheStaleSnapshot) {
  ScribeOverlay so{24, net::Topology::single_site(), failover_config()};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(2));

  const auto root = so.overlay.root_of(topic);
  ASSERT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 24.0);
  const auto epoch_before = so.scribes[root]->root_epoch_of(topic);
  EXPECT_GT(epoch_before, 0u) << "replication rounds must advance the epoch";

  // The root's rendezvous state already lives on leaf-set successors.
  std::size_t holders = 0;
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    if (i == root || so.scribes[i]->replica_of(topic) == nullptr) continue;
    ++holders;
    EXPECT_DOUBLE_EQ(so.scribes[i]->replica_of(topic)->value, 24.0);
  }
  EXPECT_GE(holders, 1u);

  so.overlay.fail_node(root);
  so.engine.run();  // drains the zero-delay promotion event

  const auto promoted = live_root(so, topic);
  ASSERT_NE(promoted, SIZE_MAX) << "exactly one live node must claim rootship";
  ASSERT_NE(promoted, root);
  EXPECT_TRUE(so.scribes[promoted]->is_degraded(topic));
  // Epoch never regresses across the failover.
  EXPECT_GE(so.scribes[promoted]->root_epoch_of(topic), epoch_before);

  // A probe right after the crash is answered from the replicated
  // snapshot: the pre-crash value, tagged stale, age within the bound.
  const std::size_t prober = promoted == 0 ? 1 : 0;
  Scribe::SizeInfo info;
  bool done = false;
  so.scribes[prober]->probe_size(topic, [&](const Scribe::SizeInfo* i) {
    ASSERT_NE(i, nullptr) << "probe missed its deadline";
    info = *i;
    done = true;
  });
  so.engine.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(info.stale);
  EXPECT_DOUBLE_EQ(info.value, 24.0);
  EXPECT_LE(info.age, failover_config().max_staleness);
  EXPECT_GE(info.epoch, epoch_before);

  // Once the survivors re-attach and report, the degraded window closes
  // and the fresh roll-up excludes the dead root.
  so.engine.run_for(SimTime::seconds(4));
  const auto settled_root = live_root(so, topic);
  ASSERT_NE(settled_root, SIZE_MAX);
  EXPECT_FALSE(so.scribes[settled_root]->is_degraded(topic));
  done = false;
  so.scribes[prober]->probe_size(topic, [&](const Scribe::SizeInfo* i) {
    ASSERT_NE(i, nullptr) << "probe missed its deadline";
    info = *i;
    done = true;
  });
  so.engine.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(info.stale);
  EXPECT_DOUBLE_EQ(info.value, 23.0);
}

TEST(Failover, AnycastDeadlineReportsMissAtFirstDeadline) {
  auto cfg = failover_config();
  cfg.heartbeat_interval = SimTime::zero();  // no prune/rejoin noise
  cfg.anycast_timeout = SimTime::millis(500);
  ScribeOverlay so{16, net::Topology::single_site(), cfg};
  obs::Registry reg;
  so.engine.set_metrics(&reg);
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(1));

  // Every message from here on is lost: the walk dies silently, which
  // before the deadline existed meant a waiter parked forever.
  so.overlay.network().set_drop_probability(1.0);
  const auto root = so.overlay.root_of(topic);
  const std::size_t entry = root == 0 ? 1 : 0;
  // The entry's own member refuses, so the walk must leave the node —
  // and every message it sends from here on is lost.
  so.members[entry]->refuse = true;
  auto payload = std::make_unique<CollectPayload>();
  int fired = 0;
  bool satisfied = true;
  const AnycastPayload* result = &*payload;
  so.scribes[entry]->anycast(topic, std::move(payload),
                             [&](bool ok, int, AnycastPayload* p) {
                               ++fired;
                               satisfied = ok;
                               result = p;
                             });
  EXPECT_EQ(so.scribes[entry]->anycast_waiter_count(), 1u);
  so.engine.run_for(SimTime::seconds(2));

  // The first deadline is the last word: a miss with no payload, and no
  // second walk (the query layer's backoff is the only retry).
  ASSERT_EQ(fired, 1) << "the deadline must deliver the miss exactly once";
  EXPECT_FALSE(satisfied);
  EXPECT_EQ(result, nullptr);
  EXPECT_EQ(so.scribes[entry]->anycast_waiter_count(), 0u);
  EXPECT_EQ(reg.fed().counter<"scribe.anycast_timeouts">().value(), 1u);
}

TEST(Failover, CompletedAnycastCancelsItsDeadline) {
  auto cfg = failover_config();
  cfg.anycast_timeout = SimTime::millis(500);
  ScribeOverlay so{16, net::Topology::single_site(), cfg};
  obs::Registry reg;
  so.engine.set_metrics(&reg);
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(1));

  const auto root = so.overlay.root_of(topic);
  const std::size_t entry = root == 0 ? 1 : 0;
  bool fired = false;
  bool satisfied = false;
  so.scribes[entry]->anycast(topic, std::make_unique<CollectPayload>(),
                             [&](bool ok, int, AnycastPayload*) {
                               fired = true;
                               satisfied = ok;
                             });
  so.engine.run_for(SimTime::seconds(2));  // well past the deadline

  EXPECT_TRUE(fired);
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(so.scribes[entry]->anycast_waiter_count(), 0u);
  EXPECT_EQ(reg.fed().counter<"scribe.anycast_timeouts">().value(), 0u)
      << "a completed walk must not also time out";
}

TEST(Failover, SizeProbeDeadlineReportsMissInsteadOfLeaking) {
  auto cfg = failover_config();
  cfg.heartbeat_interval = SimTime::zero();
  cfg.anycast_timeout = SimTime::millis(500);
  ScribeOverlay so{16, net::Topology::single_site(), cfg};
  obs::Registry reg;
  so.engine.set_metrics(&reg);
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(1));

  so.overlay.network().set_drop_probability(1.0);
  const auto root = so.overlay.root_of(topic);
  const std::size_t prober = root == 0 ? 1 : 0;
  bool fired = false;
  bool missed = false;
  so.scribes[prober]->probe_size(topic, [&](const Scribe::SizeInfo* i) {
    fired = true;
    missed = i == nullptr;
  });
  so.engine.run_for(SimTime::seconds(2));

  ASSERT_TRUE(fired);
  EXPECT_TRUE(missed) << "an unreachable root gives no answer, not an empty tree";
  EXPECT_EQ(so.scribes[prober]->size_waiter_count(), 0u);
  EXPECT_EQ(reg.fed().counter<"scribe.size_probe_timeouts">().value(), 1u);
}

TEST(Failover, WithoutTimeoutsALostWalkStillLeaksItsWaiter) {
  // Documents the pre-existing failure mode the chaos configs now guard
  // against by setting anycast_timeout: a dropped walk leaves its waiter
  // parked forever, and the leaked-waiters checker would flag it.
  auto cfg = failover_config();
  cfg.heartbeat_interval = SimTime::zero();
  cfg.anycast_timeout = SimTime::zero();
  ScribeOverlay so{16, net::Topology::single_site(), cfg};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(1));

  so.overlay.network().set_drop_probability(1.0);
  const auto root = so.overlay.root_of(topic);
  const std::size_t entry = root == 0 ? 1 : 0;
  so.members[entry]->refuse = true;  // force the walk onto the lossy wire
  bool fired = false;
  so.scribes[entry]->anycast(topic, std::make_unique<CollectPayload>(),
                             [&](bool, int, AnycastPayload*) { fired = true; });
  so.engine.run_for(SimTime::seconds(5));

  EXPECT_FALSE(fired);
  EXPECT_EQ(so.scribes[entry]->anycast_waiter_count(), 1u);
}

TEST(Failover, ZeroStalenessBoundStillRetainsReplicas) {
  // Regression: replica GC retained entries for max_staleness * 4, so a
  // zero staleness bound (degraded reads disabled) made every heartbeat
  // round erase every replica — a root crash then lost the tree state
  // replication had faithfully delivered.
  auto cfg = failover_config();
  cfg.max_staleness = SimTime::zero();
  ScribeOverlay so{24, net::Topology::single_site(), cfg};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(2));  // many heartbeat rounds

  const auto root = so.overlay.root_of(topic);
  std::size_t holders = 0;
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    if (i != root && so.scribes[i]->replica_of(topic) != nullptr) ++holders;
  }
  EXPECT_GE(holders, 1u) << "heartbeat GC must not erase replicas when the bound is zero";

  // And the failover they exist for still works.
  so.overlay.fail_node(root);
  so.engine.run();
  EXPECT_NE(live_root(so, topic), SIZE_MAX)
      << "a replica holder must still be able to promote";
}

TEST(Failover, RebuiltTreeResumesItsReplicationEpoch) {
  // Tearing a tree down (all members leave) and rebuilding it must not
  // restart the root's replication epoch at zero: successors keep the old
  // high-epoch replica and would silently reject every new snapshot — and
  // a root crash after the rebuild would promote the ancient state.
  ScribeOverlay so{16, net::Topology::single_site(), failover_config()};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(2));

  const auto root = so.overlay.root_of(topic);
  const auto epoch_before = so.scribes[root]->root_epoch_of(topic);
  ASSERT_GT(epoch_before, 0u);

  for (std::size_t i = 0; i < so.overlay.size(); ++i) so.scribes[i]->unsubscribe(topic);
  so.engine.run_for(SimTime::seconds(1));
  EXPECT_EQ(so.scribes[root]->root_epoch_of(topic), 0u) << "tree should be torn down";

  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(2));
  const auto reroot = so.overlay.root_of(topic);
  EXPECT_GT(so.scribes[reroot]->root_epoch_of(topic), epoch_before);

  // Successors accept the rebuilt tree's snapshots: no replica is ahead
  // of the live root.
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    const auto* rep = so.scribes[i]->replica_of(topic);
    if (rep == nullptr) continue;
    EXPECT_LE(rep->epoch, so.scribes[reroot]->root_epoch_of(topic));
    EXPECT_DOUBLE_EQ(rep->value, 16.0) << "replica still carries pre-teardown state";
  }
}

}  // namespace
}  // namespace rbay::scribe
