// Regression tests for latent scheduling non-determinism
// (docs/PARALLEL_ENGINE.md, "Determinism audit").
//
// Scribe's periodic rounds — aggregation reports, heartbeats, parent
// checks, replica promotion — iterate the per-node topic map and send one
// message per entry, so the iteration order decides the per-message
// jitter draws and same-instant tie-breaks of every round.  These tests
// pin the contract that the order is sorted by TopicId: a pure function
// of the topic SET.  They fail against a hash-map implementation, whose
// order is a function of insertion/erase HISTORY — two nodes holding the
// same topics through different subscription histories would schedule
// differently.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scribe/scribe_helpers.hpp"

namespace rbay::scribe {
namespace {

using testing::ScribeOverlay;
using util::SimTime;

std::vector<TopicId> test_topics() {
  // Enough keys that hash order virtually never coincides with sorted
  // order (probability 1/12! under any history-sensitive ordering).
  std::vector<TopicId> topics;
  for (const char* attr : {"GPU", "CPU", "disk", "mem", "net", "rack", "pdu",
                           "os", "gen", "ssd", "fpga", "tpu"}) {
    topics.push_back(pastry::tree_id(attr, "admin"));
  }
  return topics;
}

TEST(ScribeDeterminism, TopicWalkOrderIsSortedNotInsertionOrder) {
  const auto topics = test_topics();
  ScribeOverlay so{4};
  // Subscribe node 0 in descending-id order — the exact opposite of the
  // contract order — so an insertion-ordered or hash-ordered map fails.
  auto reversed = topics;
  std::sort(reversed.begin(), reversed.end(),
            [](const TopicId& a, const TopicId& b) { return b < a; });
  for (const auto& topic : reversed) {
    so.scribes[0]->subscribe(topic, so.members[0].get());
  }
  so.engine.run();

  const auto walk = so.scribes[0]->known_topics();
  ASSERT_EQ(walk.size(), topics.size());
  EXPECT_TRUE(std::is_sorted(walk.begin(), walk.end()));
}

TEST(ScribeDeterminism, TopicWalkOrderIsIndependentOfSubscriptionHistory) {
  const auto topics = test_topics();
  const auto walk_after = [&](bool churn) {
    ScribeOverlay so{4};
    for (const auto& topic : topics) {
      so.scribes[0]->subscribe(topic, so.members[0].get());
    }
    so.engine.run();
    if (churn) {
      // Tear half the topics down and bring them back: same final topic
      // set, different map history.  A hash map typically lands the
      // re-inserted keys in new bucket positions; sorted order cannot.
      for (std::size_t i = 0; i < topics.size(); i += 2) {
        so.scribes[0]->unsubscribe(topics[i]);
      }
      so.engine.run();
      for (std::size_t i = 0; i < topics.size(); i += 2) {
        so.scribes[0]->subscribe(topics[i], so.members[0].get());
      }
      so.engine.run();
    }
    return so.scribes[0]->known_topics();
  };

  const auto plain = walk_after(false);
  const auto churned = walk_after(true);
  ASSERT_EQ(plain.size(), topics.size());
  EXPECT_EQ(plain, churned);
  EXPECT_TRUE(std::is_sorted(plain.begin(), plain.end()));
}

}  // namespace
}  // namespace rbay::scribe
