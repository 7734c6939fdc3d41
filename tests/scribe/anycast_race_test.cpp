// Regression: an anycast result racing the deadline path must never
// complete the waiter twice, and the losing (orphaned) result must be
// surfaced so its member-side reservations can be released.
//
// The hazard (fixed alongside this test): the slow walk outlives
// the deadline, which completes the caller with a miss, and then comes
// home satisfied.  Before completion was funneled through the
// take-the-waiter-first choke point, the late result re-entered the
// callback — a double complete — and the reservations its members took
// during the DFS leaked silently.
#include <gtest/gtest.h>

#include <vector>

#include "net/topology.hpp"
#include "scribe/scribe_helpers.hpp"
#include "util/sim_time.hpp"

namespace rbay::scribe {
namespace {

using testing::CollectPayload;
using testing::ScribeOverlay;

TEST(AnycastRace, LateResultAfterTimeoutIsOrphanedNotDoubleCompleted) {
  // A 200ms RTT within the one site dwarfs the 50ms anycast deadline:
  // the walk cannot come home before it has fired.
  ScribeConfig config;
  config.anycast_timeout = util::SimTime::millis(50);
  ScribeOverlay so{8, net::Topology::uniform(1, 200.0, 200.0), config};

  // Every node but the caller is a member, so the walk needs at least one
  // hop to reach a member and one more to come home.
  const TopicId topic = pastry::tree_id("GPU", "admin");
  const std::size_t caller = 0;
  for (std::size_t i = 1; i < so.overlay.size(); ++i) {
    so.scribes[i]->subscribe(topic, so.members[i].get());
  }
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
                              [&](bool satisfied, int, AnycastPayload*) {
                                ++completions;
                                last_satisfied = satisfied;
                              });
  so.engine.run();

  // Exactly one completion — the deadline's miss.  The walk found a member
  // later and came home as an orphan carrying the reservation it took.
  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(last_satisfied);
  EXPECT_EQ(so.scribes[caller]->anycast_orphans(), 1u);
  ASSERT_EQ(orphaned.size(), 1u);
  EXPECT_EQ(orphaned.front().size(), 1u) << "orphaned walk should carry its reservation";
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
                         [&](bool satisfied, int, AnycastPayload*) {
                           ++completions;
                           satisfied_result = satisfied;
                         });
  so.engine.run();

  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(satisfied_result);
  EXPECT_EQ(so.scribes[0]->anycast_orphans(), 0u);
  EXPECT_EQ(so.scribes[0]->anycast_waiter_count(), 0u);
}

}  // namespace
}  // namespace rbay::scribe
