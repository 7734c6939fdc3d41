#include <gtest/gtest.h>

#include "scribe/scribe_helpers.hpp"

namespace rbay::scribe {
namespace {

using testing::CollectPayload;
using testing::ScribeOverlay;

struct AnycastResult {
  bool done = false;
  bool satisfied = false;
  int members_visited = 0;
  std::vector<pastry::NodeId> collected;
};

AnycastResult run_anycast(ScribeOverlay& so, std::size_t from, const TopicId& topic,
                          std::size_t want) {
  AnycastResult result;
  auto payload = std::make_unique<CollectPayload>();
  payload->want = want;
  so.scribes[from]->anycast(topic, std::move(payload),
                            [&](bool satisfied, int visited, AnycastPayload* p) {
                              result.done = true;
                              result.satisfied = satisfied;
                              result.members_visited = visited;
                              result.collected = dynamic_cast<CollectPayload&>(*p).collected;
                            });
  so.engine.run();
  return result;
}

TEST(Anycast, FindsOneMemberQuickly) {
  ScribeOverlay so{32};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  const auto r = run_anycast(so, 0, topic, 1);
  ASSERT_TRUE(r.done);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.collected.size(), 1u);
  EXPECT_EQ(r.members_visited, 1);
}

TEST(Anycast, CollectsKCandidates) {
  ScribeOverlay so{32};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  const auto r = run_anycast(so, 3, topic, 10);
  ASSERT_TRUE(r.done);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.collected.size(), 10u);
  // All collected ids are distinct members.
  std::set<std::string> unique;
  for (const auto& id : r.collected) unique.insert(id.to_hex());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Anycast, VisitsAllMembersWhenUnsatisfiable) {
  ScribeOverlay so{20};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  // Only 5 members subscribe.
  for (std::size_t i = 0; i < 5; ++i) so.scribes[i]->subscribe(topic, so.members[i].get());
  so.engine.run();
  // Ask for 50 — impossible: the DFS must visit all 5 then give up.
  const auto r = run_anycast(so, 10, topic, 50);
  ASSERT_TRUE(r.done);
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.collected.size(), 5u);
  EXPECT_EQ(r.members_visited, 5);
}

TEST(Anycast, EmptyTopicFailsGracefully) {
  ScribeOverlay so{16};
  const TopicId topic = pastry::tree_id("nonexistent", "x");
  const auto r = run_anycast(so, 2, topic, 1);
  ASSERT_TRUE(r.done);
  EXPECT_FALSE(r.satisfied);
  EXPECT_TRUE(r.collected.empty());
}

TEST(Anycast, RefusingMembersAreVisitedButNotCollected) {
  ScribeOverlay so{16};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  // Half the members refuse (simulating onGet policy denial).
  for (std::size_t i = 0; i < so.members.size(); i += 2) so.members[i]->refuse = true;
  const auto r = run_anycast(so, 1, topic, 100);
  ASSERT_TRUE(r.done);
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.collected.size(), so.members.size() / 2);
}

TEST(Anycast, DfsDoesNotRevisitMembers) {
  ScribeOverlay so{24};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  run_anycast(so, 0, topic, 1000);  // exhaustive walk
  for (std::size_t i = 0; i < so.members.size(); ++i) {
    EXPECT_LE(so.members[i]->anycast_visits, 1) << "member " << i << " visited twice";
  }
}

TEST(Anycast, ConcurrentAnycastsAreIndependent) {
  ScribeOverlay so{24};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  int done = 0;
  for (std::size_t q = 0; q < 8; ++q) {
    auto payload = std::make_unique<CollectPayload>();
    payload->want = 3;
    so.scribes[q]->anycast(topic, std::move(payload),
                           [&](bool satisfied, int, AnycastPayload* p) {
                             ++done;
                             EXPECT_TRUE(satisfied);
                             EXPECT_EQ(dynamic_cast<CollectPayload&>(*p).collected.size(), 3u);
                           });
  }
  so.engine.run();
  EXPECT_EQ(done, 8);
}

}  // namespace
}  // namespace rbay::scribe
