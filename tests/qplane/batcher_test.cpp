// Probe batcher: one walk per (attribute, value) tree no matter how many
// concurrent waiters, and the leader's answer fans out byte-identically
// to every coalesced waiter.  The integrated test drives real concurrent
// COUNT queries through a federation and checks the walk/coalesce
// counters plus outcome identity end to end.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/cluster.hpp"
#include "net/topology.hpp"
#include "pastry/node_id.hpp"
#include "qplane/probe_batcher.hpp"
#include "util/sim_time.hpp"

namespace rbay::qplane {
namespace {

using SizeInfo = ProbeBatcher::SizeInfo;

SizeInfo make_info(double value, std::uint64_t epoch, bool stale, util::SimTime age) {
  SizeInfo info{};
  info.value = value;
  info.epoch = epoch;
  info.stale = stale;
  info.age = age;
  return info;
}

TEST(ProbeBatcher, CoalescesWaitersAndFansOutByteIdenticalAnswers) {
  ProbeBatcher batcher;
  const auto topic = pastry::tree_id("GPU", "admin");

  int issued = 0;
  ProbeBatcher::SizeCallback leader_reply;
  auto issue = [&](const scribe::TopicId&, ProbeBatcher::SizeCallback cb) {
    ++issued;
    leader_reply = std::move(cb);
  };

  std::vector<SizeInfo> got;
  std::vector<bool> coalesced;
  for (int i = 0; i < 5; ++i) {
    coalesced.push_back(
        batcher.probe(topic, [&got](const SizeInfo& info) { got.push_back(info); }, issue));
  }
  EXPECT_EQ(issued, 1);
  EXPECT_EQ(coalesced, (std::vector<bool>{false, true, true, true, true}));
  EXPECT_EQ(batcher.inflight(), 1u);
  EXPECT_TRUE(got.empty());

  const auto answer = make_info(42.0, 7, true, util::SimTime::millis(3));
  leader_reply(answer);
  ASSERT_EQ(got.size(), 5u);
  for (const auto& g : got) {
    EXPECT_EQ(std::memcmp(&g, &answer, sizeof(SizeInfo)), 0)
        << "fan-out must deliver the leader's answer byte-for-byte";
  }
  EXPECT_EQ(batcher.inflight(), 0u);
}

TEST(ProbeBatcher, DistinctTopicsWalkIndependently) {
  ProbeBatcher batcher;
  int issued = 0;
  auto issue = [&](const scribe::TopicId&, ProbeBatcher::SizeCallback) { ++issued; };
  EXPECT_FALSE(batcher.probe(pastry::tree_id("GPU", "admin"), [](const SizeInfo&) {}, issue));
  EXPECT_FALSE(batcher.probe(pastry::tree_id("CPU", "admin"), [](const SizeInfo&) {}, issue));
  EXPECT_EQ(issued, 2);
  EXPECT_EQ(batcher.inflight(), 2u);
}

TEST(ProbeBatcher, ReprobeFromInsideFanOutStartsAFreshWalk) {
  // The cohort is detached before the fan-out runs, so a waiter that
  // immediately re-probes the same topic must become a new leader rather
  // than corrupting the in-flight map mid-iteration.
  ProbeBatcher batcher;
  const auto topic = pastry::tree_id("GPU", "admin");
  std::vector<ProbeBatcher::SizeCallback> replies;
  auto issue = [&](const scribe::TopicId&, ProbeBatcher::SizeCallback cb) {
    replies.push_back(std::move(cb));
  };
  int inner_answers = 0;
  bool inner_coalesced = true;
  batcher.probe(topic,
                [&](const SizeInfo&) {
                  inner_coalesced = batcher.probe(
                      topic, [&](const SizeInfo&) { ++inner_answers; }, issue);
                },
                issue);
  ASSERT_EQ(replies.size(), 1u);
  replies[0](make_info(1.0, 1, false, util::SimTime::zero()));
  ASSERT_EQ(replies.size(), 2u) << "re-probe should have issued a fresh walk";
  EXPECT_FALSE(inner_coalesced);
  replies[1](make_info(2.0, 2, false, util::SimTime::zero()));
  EXPECT_EQ(inner_answers, 1);
  EXPECT_EQ(batcher.inflight(), 0u);
}

TEST(ProbeBatcherIntegration, ConcurrentCountsShareOneWalkAndAgree) {
  // Two sites with a slow intra-site hop: the six SiteQuery messages land
  // at Site1's gateway within the network-jitter spread, well inside the
  // gateway->root probe round-trip, so every probe after the leader's
  // must coalesce onto the in-flight walk.
  core::ClusterConfig config;
  config.topology = net::Topology::uniform(2, 5.0, 40.0);
  config.seed = 11;
  config.metrics = true;
  config.node.scribe.aggregation_interval = util::SimTime::millis(100);
  config.node.query.qplane.batch_probes = true;  // cache off: isolate batching
  core::RBayCluster cluster(config);
  cluster.add_tree_spec(core::TreeSpec::from_predicate([] {
    query::Predicate p;
    p.attribute = "GPU";
    p.op = query::CompareOp::Eq;
    p.literal = store::AttributeValue{true};
    return p;
  }()));
  (void)cluster.add_node(0);  // caller's site
  for (int i = 0; i < 10; ++i) {
    auto& node = cluster.add_node(1);
    ASSERT_TRUE(node.post("GPU", store::AttributeValue{true}).ok());
  }
  cluster.finalize();
  cluster.run_for(util::SimTime::seconds(3));
  cluster.run();

  constexpr int kWaiters = 6;
  std::vector<core::QueryOutcome> outcomes;
  const auto before_probes =
      cluster.metrics()->fed().counter<"scribe.size_probes">().value();
  for (int i = 0; i < kWaiters; ++i) {
    cluster.node(0).query().execute_sql(
        "SELECT COUNT FROM Site1 WHERE GPU = true",
        [&outcomes](const core::QueryOutcome& o) { outcomes.push_back(o); });
  }
  cluster.run();

  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kWaiters));
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.satisfied);
    EXPECT_EQ(o.count, 10.0);
    // Identical answers across all coalesced waiters.
    EXPECT_EQ(o.count, outcomes.front().count);
    EXPECT_EQ(o.stale, outcomes.front().stale);
    EXPECT_EQ(o.cached, outcomes.front().cached);
    EXPECT_EQ(o.staleness, outcomes.front().staleness);
  }
  auto& fed = cluster.metrics()->fed();
  EXPECT_EQ(fed.counter<"qplane.probe_walks">().value(), 1u);
  EXPECT_EQ(fed.counter<"qplane.probes_coalesced">().value(),
            static_cast<std::uint64_t>(kWaiters - 1));
  EXPECT_EQ(fed.counter<"scribe.size_probes">().value() - before_probes, 1u)
      << "the tree must see exactly one probe for the whole storm";
}

}  // namespace
}  // namespace rbay::qplane
