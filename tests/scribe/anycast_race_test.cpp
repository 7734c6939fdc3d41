// Regression: an anycast result racing the deadline path must never
// complete the waiter twice, and the losing (orphaned) result must be
// surfaced so its member-side reservations can be released.
//
// The hazard (fixed alongside this test): the cross-site walk outlives
// both the first deadline (which clones and retries the walk under the
// same request id) and the second (which completes the caller with a
// miss).  Both walks then come home satisfied.  Before completion was
// funneled through the take-the-waiter-first choke point, the late
// results re-entered the callback — a double complete — and the
// reservations their members took during the DFS leaked silently.
#include <gtest/gtest.h>

#include <vector>

#include "net/topology.hpp"
#include "query/reservation.hpp"
#include "scribe/scribe_helpers.hpp"
#include "util/sim_time.hpp"

namespace rbay::scribe {
namespace {

using testing::CollectPayload;
using testing::ScribeOverlay;

TEST(AnycastRace, LateResultAfterTimeoutIsOrphanedNotDoubleCompleted) {
  // Cross-site RTT (2 x 200ms) dwarfs the 50ms anycast deadline: the
  // walk cannot come home before both expiries have fired.
  ScribeConfig config;
  config.anycast_timeout = util::SimTime::millis(50);
  ScribeOverlay so{4, net::Topology::uniform(2, 0.5, 200.0), config};

  // Members live only in site 1; the caller anycasts from site 0.
  const TopicId topic = pastry::tree_id("GPU", "admin");
  std::size_t caller = SIZE_MAX;
  for (std::size_t i = 0; i < so.overlay.size(); ++i) {
    if (so.overlay.ref(i).site == 1) {
      so.scribes[i]->subscribe(topic, so.members[i].get());
    } else if (caller == SIZE_MAX) {
      caller = i;
    }
  }
  ASSERT_NE(caller, SIZE_MAX);
  so.engine.run();

  std::vector<std::vector<pastry::NodeId>> orphaned;
  so.scribes[caller]->set_orphan_handler([&](const TopicId& t, AnycastPayload& p) {
    EXPECT_EQ(t, topic);
    orphaned.push_back(dynamic_cast<CollectPayload&>(p).collected);
  });

  int completions = 0;
  bool last_satisfied = true;
  auto payload = std::make_unique<CollectPayload>();
  payload->want = 1;
  so.scribes[caller]->anycast(topic, std::move(payload),
                              [&](bool satisfied, int, AnycastPayload&) {
                                ++completions;
                                last_satisfied = satisfied;
                              },
                              pastry::Scope::Global);
  so.engine.run();

  // Exactly one completion — the second deadline's miss.  The walk (and
  // the first deadline's retried walk) both found a member later; each
  // came home as an orphan carrying the reservation it took.
  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(last_satisfied);
  EXPECT_EQ(so.scribes[caller]->anycast_orphans(), 2u);
  ASSERT_EQ(orphaned.size(), 2u);
  for (const auto& collected : orphaned) {
    EXPECT_EQ(collected.size(), 1u) << "orphaned walk should carry its reservation";
  }
  EXPECT_EQ(so.scribes[caller]->anycast_waiter_count(), 0u);
}

TEST(AnycastRace, FastResultStillCompletesOnceWithNoOrphans) {
  ScribeConfig config;
  config.anycast_timeout = util::SimTime::millis(500);
  ScribeOverlay so{8, net::Topology::single_site(), config};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);

  int completions = 0;
  bool satisfied_result = false;
  auto payload = std::make_unique<CollectPayload>();
  payload->want = 1;
  so.scribes[0]->anycast(topic, std::move(payload),
                         [&](bool satisfied, int, AnycastPayload&) {
                           ++completions;
                           satisfied_result = satisfied;
                         });
  so.engine.run();

  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(satisfied_result);
  EXPECT_EQ(so.scribes[0]->anycast_orphans(), 0u);
  EXPECT_EQ(so.scribes[0]->anycast_waiter_count(), 0u);
}

const query::QueryId kQuery{util::U128{1}, 1};

/// Reserves its node for the walk that visits it, as the RBAY core node
/// does: holder kQuery, attempt 1, walk from the payload.
class ReservingMember final : public TopicMember {
 public:
  ReservingMember(sim::Engine& engine, pastry::NodeId id) : engine_(engine), id_(id) {}
  void on_multicast(const TopicId&, const std::string&) override {}
  bool on_anycast(const TopicId&, AnycastPayload& payload) override {
    auto& collect = dynamic_cast<CollectPayload&>(payload);
    if (!lock.try_reserve(kQuery, engine_.now(), util::SimTime::seconds(10), 1, payload.walk)) {
      return false;
    }
    collect.collected.push_back(id_);
    return collect.collected.size() >= collect.want;
  }
  query::ReservationLock lock;

 private:
  sim::Engine& engine_;
  pastry::NodeId id_;
};

/// Completes one anycast of `want` nodes under `timeout` and returns the
/// sim-time it took plus the nodes the completed result carried, with each
/// orphaned result released the way the query layer releases it.
struct SlowWalkRun {
  util::SimTime took = util::SimTime::zero();
  std::vector<pastry::NodeId> handed_on;
  std::vector<std::unique_ptr<ReservingMember>> members;
  std::uint64_t orphans = 0;
};

SlowWalkRun run_slow_walk(util::SimTime timeout) {
  ScribeConfig config;
  config.anycast_timeout = timeout;
  ScribeOverlay so{8, net::Topology::uniform(1, 10.0, 10.0), config};
  SlowWalkRun run;
  const TopicId topic = pastry::tree_id("GPU", "admin");
  for (std::size_t i = 1; i < so.overlay.size(); ++i) {
    run.members.push_back(std::make_unique<ReservingMember>(so.engine, so.overlay.ref(i).id));
    so.scribes[i]->subscribe(topic, run.members.back().get());
  }
  so.engine.run();
  auto member_of = [&](const pastry::NodeId& id) -> ReservingMember& {
    return *run.members[so.overlay.index_of(id) - 1];
  };
  so.scribes[0]->set_orphan_handler([&](const TopicId&, AnycastPayload& p) {
    for (const auto& id : dynamic_cast<CollectPayload&>(p).collected) {
      member_of(id).lock.release(kQuery, so.engine.now(), 1);
    }
  });
  const auto start = so.engine.now();
  auto payload = std::make_unique<CollectPayload>();
  payload->want = 2;
  so.scribes[0]->anycast(topic, std::move(payload), [&](bool satisfied, int, AnycastPayload& p) {
    EXPECT_TRUE(satisfied);
    run.took = so.engine.now() - start;
    run.handed_on = dynamic_cast<CollectPayload&>(p).collected;
  });
  so.engine.run();
  run.orphans = so.scribes[0]->anycast_orphans();
  for (const auto& id : run.handed_on) {
    EXPECT_TRUE(member_of(id).lock.reserved(so.engine.now()))
        << "a node the completed result handed on was freed by the orphaned walk";
  }
  return run;
}

TEST(AnycastRace, SlowFirstWalkAndRetryNeverReserveTheSameNode) {
  // A walk slower than the deadline but faster than two: the retry starts,
  // the first walk still completes the waiter, and the retry comes home
  // as an orphan whose release must not free the first walk's nodes.
  const auto free_run = run_slow_walk(util::SimTime::zero());
  ASSERT_EQ(free_run.handed_on.size(), 2u);
  const auto timeout = util::SimTime::micros(free_run.took.as_micros() * 3 / 4);
  const auto raced = run_slow_walk(timeout);
  EXPECT_EQ(raced.orphans, 1u) << "the retried walk should come home second";
  EXPECT_EQ(raced.handed_on.size(), 2u);
}

}  // namespace
}  // namespace rbay::scribe
