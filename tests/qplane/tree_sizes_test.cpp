// The size table (qplane::TreeSizes) in its two roles.  As an answer
// cache: the TTL/staleness contract at the unit level, live hits and
// expiry through a real federation, and the chaos-composed regression: a
// root crash must invalidate the table via the degraded replies the
// promoted replica serves (reusing the scenarios/chaos_root_crash.rbay
// machinery: crash-root / recover-root / max-staleness).  As a probe
// batcher: one walk per (attribute, value) tree no matter how many
// concurrent waiters, the answer fanned out byte-identically to every
// waiter, and each root answer counted once however many waiters it had.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "net/topology.hpp"
#include "pastry/node_id.hpp"
#include "qplane/tree_sizes.hpp"
#include "tools/scenario.hpp"
#include "util/sim_time.hpp"

namespace rbay::qplane {
namespace {

using util::SimTime;
using SizeInfo = TreeSizes::SizeInfo;
using Stored = TreeSizes::Stored;
using Read = TreeSizes::Read;
using From = TreeSize::From;

SizeInfo make_info(double value, std::uint64_t epoch, bool stale = false,
                   SimTime age = SimTime::zero()) {
  SizeInfo info{};
  info.value = value;
  info.epoch = epoch;
  info.stale = stale;
  info.age = age;
  return info;
}

/// A table over a hand-set clock whose walks wait in `walks` until the
/// test answers them; `answers` records every call of the answer hook.
struct Table {
  SimTime clock = SimTime::zero();
  std::vector<scribe::Scribe::SizeCallback> walks;
  std::vector<std::pair<SizeInfo, Stored>> answers;
  TreeSizes sizes;

  Table(SimTime ttl, bool batch)
      : sizes(
            ttl, batch, [this] { return clock; },
            [this](const scribe::TopicId&, scribe::Scribe::SizeCallback cb) {
              walks.push_back(std::move(cb));
            },
            [this](const SizeInfo& info, Stored stored) { answers.emplace_back(info, stored); }) {}

  /// Reads `topic` at `at` with no answer stored: returns the walk the
  /// read starts.
  std::size_t start(const scribe::TopicId& topic, SimTime at) {
    clock = at;
    EXPECT_EQ(sizes.read(topic, [](const TreeSize&) {}), Read::Walk);
    return walks.size() - 1;
  }

  /// Answers walk `walk` at `at`; returns what the answer did.
  Stored finish(std::size_t walk, const SizeInfo& info, SimTime at) {
    clock = at;
    const auto before = answers.size();
    walks.at(walk)(&info);
    EXPECT_EQ(answers.size(), before + 1);
    return answers.back().second;
  }

  Stored answer(const scribe::TopicId& topic, const SizeInfo& info, SimTime at) {
    return finish(start(topic, at), info, at);
  }

  /// Reads `topic` at `at`: the stored answer on a hit, else nullopt (the
  /// walk the read starts is then missed, which leaves the table alone).
  std::optional<TreeSize> lookup(const scribe::TopicId& topic, SimTime at) {
    clock = at;
    std::optional<TreeSize> got;
    if (sizes.read(topic, [&got](const TreeSize& size) { got = size; }) == Read::Hit) return got;
    walks.back()(nullptr);
    EXPECT_EQ(got->from, From::Missed);
    return std::nullopt;
  }
};

TEST(AnswerCache, DisabledWhenTtlIsZero) {
  Table t{SimTime::zero(), false};
  EXPECT_FALSE(t.sizes.caching());
  const auto topic = pastry::tree_id("GPU", "admin");
  EXPECT_EQ(t.answer(topic, make_info(8.0, 3), SimTime::zero()), Stored::Skipped);
  EXPECT_FALSE(t.lookup(topic, SimTime::zero()).has_value());
  EXPECT_EQ(t.sizes.size(), 0u);
}

TEST(AnswerCache, HitWithinTtlIsStaleTaggedWithHonestAge) {
  Table t{SimTime::millis(300), false};
  const auto topic = pastry::tree_id("GPU", "admin");
  EXPECT_EQ(t.answer(topic, make_info(8.0, 3), SimTime::millis(1000)), Stored::Stored);

  const auto hit = t.lookup(topic, SimTime::millis(1100));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->from, From::Cache);
  EXPECT_EQ(hit->info.value, 8.0);
  EXPECT_EQ(hit->info.epoch, 3u);
  EXPECT_TRUE(hit->info.stale) << "cache hits must surface as degraded reads";
  EXPECT_EQ(hit->info.age, SimTime::millis(100));
  EXPECT_EQ(t.sizes.hits(), 1u);
}

TEST(AnswerCache, NeverServesOlderThanTtl) {
  // The staleness contract (docs/QUERY_PLANE.md): hit age <= ttl, which
  // implies the global bound ttl + max_staleness with room to spare.
  const auto ttl = SimTime::millis(250);
  Table t{ttl, false};
  const auto topic = pastry::tree_id("CPU", "admin");
  t.answer(topic, make_info(4.0, 1), SimTime::zero());
  for (int ms = 0; ms <= 1000; ms += 50) {
    const auto hit = t.lookup(topic, SimTime::millis(ms));
    if (hit) {
      EXPECT_LE(hit->info.age, ttl) << "at t=" << ms << "ms";
    }
  }
  // Past the TTL every read missed and the first one dropped the entry.
  EXPECT_EQ(t.sizes.size(), 0u);
  EXPECT_GT(t.sizes.misses(), 0u);
}

TEST(AnswerCache, DegradedStoreInvalidatesInsteadOfCaching) {
  Table t{SimTime::millis(300), false};
  const auto topic = pastry::tree_id("GPU", "admin");
  const auto degraded_walk = t.start(topic, SimTime::zero());
  t.answer(topic, make_info(8.0, 3), SimTime::zero());
  EXPECT_EQ(t.sizes.size(), 1u);

  EXPECT_EQ(t.finish(degraded_walk, make_info(8.0, 3, true, SimTime::millis(40)),
                     SimTime::millis(50)),
            Stored::Invalidated);
  EXPECT_EQ(t.sizes.size(), 0u) << "a degraded reply must evict, not refresh";
  EXPECT_FALSE(t.lookup(topic, SimTime::millis(60)).has_value());
}

TEST(AnswerCache, ReorderedStaleReplyCannotEvictFresherEntry) {
  // Regression: under network reordering a degraded (stale) SizeReply from
  // an older replication epoch can arrive AFTER a fresh answer from a newer
  // round was stored.  It used to evict unconditionally; now the stale
  // branch is epoch-gated, so only a same-or-newer-epoch degraded reply
  // invalidates.
  Table t{SimTime::millis(300), false};
  const auto topic = pastry::tree_id("GPU", "admin");
  const auto late_walk = t.start(topic, SimTime::zero());
  const auto current_walk = t.start(topic, SimTime::zero());
  t.answer(topic, make_info(9.0, 5), SimTime::zero());

  // Pre-failover epoch, reordered.
  EXPECT_EQ(t.finish(late_walk, make_info(7.0, 3, true, SimTime::millis(40)), SimTime::millis(10)),
            Stored::EpochRejected);
  const auto hit = t.lookup(topic, SimTime::millis(20));
  ASSERT_TRUE(hit.has_value()) << "fresher entry must survive the stale straggler";
  EXPECT_EQ(hit->info.value, 9.0);
  EXPECT_EQ(hit->info.epoch, 5u);

  // A degraded reply at the stored epoch (or newer) still invalidates.
  EXPECT_EQ(t.finish(current_walk, make_info(9.0, 5, true), SimTime::millis(30)),
            Stored::Invalidated);
  EXPECT_FALSE(t.lookup(topic, SimTime::millis(40)).has_value());
}

TEST(AnswerCache, LowerEpochStoreIsRejectedInsteadOfRollingBack) {
  // Regression: a late-arriving fresh answer from an older replication
  // epoch (slow probe overtaken by a newer round, or a pre-rotation answer
  // landing after the root set advanced) used to overwrite the newer
  // entry, rolling the cache back in time.
  Table t{SimTime::millis(300), false};
  const auto topic = pastry::tree_id("GPU", "admin");
  std::vector<std::size_t> late;
  for (int i = 0; i < 4; ++i) late.push_back(t.start(topic, SimTime::zero()));
  t.answer(topic, make_info(9.0, 5), SimTime::zero());

  // Stragglers.
  EXPECT_EQ(t.finish(late[0], make_info(7.0, 3), SimTime::millis(10)), Stored::EpochRejected);
  EXPECT_EQ(t.finish(late[1], make_info(6.0, 4), SimTime::millis(20)), Stored::EpochRejected);

  const auto hit = t.lookup(topic, SimTime::millis(50));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->info.value, 9.0) << "the newer-epoch entry must survive stragglers";
  EXPECT_EQ(hit->info.epoch, 5u);

  // Same or newer epochs still refresh normally.
  EXPECT_EQ(t.finish(late[2], make_info(10.0, 5), SimTime::millis(60)), Stored::Stored);
  EXPECT_EQ(t.finish(late[3], make_info(11.0, 6), SimTime::millis(70)), Stored::Stored);
  const auto fresh = t.lookup(topic, SimTime::millis(80));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->info.value, 11.0);
  EXPECT_EQ(fresh->info.epoch, 6u);
}

TEST(AnswerCache, MissedProbeIsNeverStored) {
  // A probe that missed its deadline says nothing about the tree: its
  // waiters read Missed, no answer is stored, and the answer hook never
  // runs, so the next read walks to the root again.
  Table t{SimTime::seconds(2), false};
  const auto topic = pastry::tree_id("GPU", "admin");
  EXPECT_FALSE(t.lookup(topic, SimTime::zero()).has_value());
  EXPECT_EQ(t.sizes.size(), 0u);
  EXPECT_TRUE(t.answers.empty());
  EXPECT_EQ(t.answer(topic, make_info(11.0, 1), SimTime::millis(10)), Stored::Stored);
  const auto hit = t.lookup(topic, SimTime::millis(20));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->info.value, 11.0);
}

TEST(ProbeBatcher, CoalescesWaitersAndFansOutByteIdenticalAnswers) {
  Table t{SimTime::zero(), true};
  const auto topic = pastry::tree_id("GPU", "admin");

  std::vector<TreeSize> got;
  std::vector<Read> reads;
  for (int i = 0; i < 5; ++i) {
    reads.push_back(t.sizes.read(topic, [&got](const TreeSize& size) { got.push_back(size); }));
  }
  EXPECT_EQ(t.walks.size(), 1u);
  EXPECT_EQ(reads, (std::vector<Read>{Read::Walk, Read::Coalesced, Read::Coalesced,
                                      Read::Coalesced, Read::Coalesced}));
  EXPECT_EQ(t.sizes.size(), 1u);
  EXPECT_TRUE(got.empty());

  const auto answer = make_info(42.0, 7, true, SimTime::millis(3));
  t.walks[0](&answer);
  ASSERT_EQ(got.size(), 5u);
  for (const auto& g : got) {
    EXPECT_EQ(g.from, From::Root);
    EXPECT_EQ(std::memcmp(&g.info, &answer, sizeof(SizeInfo)), 0)
        << "fan-out must deliver the leader's answer byte-for-byte";
  }
  EXPECT_EQ(t.answers.size(), 1u) << "one walk, one answer";
  EXPECT_EQ(t.sizes.size(), 0u);
}

TEST(ProbeBatcher, DistinctTopicsWalkIndependently) {
  Table t{SimTime::zero(), true};
  EXPECT_EQ(t.sizes.read(pastry::tree_id("GPU", "admin"), [](const TreeSize&) {}), Read::Walk);
  EXPECT_EQ(t.sizes.read(pastry::tree_id("CPU", "admin"), [](const TreeSize&) {}), Read::Walk);
  EXPECT_EQ(t.walks.size(), 2u);
  EXPECT_EQ(t.sizes.size(), 2u);
}

TEST(ProbeBatcher, ReprobeFromInsideFanOutStartsAFreshWalk) {
  // The cohort is detached before the fan-out runs, so a waiter that
  // immediately reads the same tree again must start a new walk rather
  // than corrupting the cohort mid-iteration.
  Table t{SimTime::zero(), true};
  const auto topic = pastry::tree_id("GPU", "admin");
  int inner_answers = 0;
  Read inner = Read::Coalesced;
  t.sizes.read(topic, [&](const TreeSize&) {
    inner = t.sizes.read(topic, [&](const TreeSize&) { ++inner_answers; });
  });
  ASSERT_EQ(t.walks.size(), 1u);
  const auto first = make_info(1.0, 1);
  t.walks[0](&first);
  ASSERT_EQ(t.walks.size(), 2u) << "re-probe should have issued a fresh walk";
  EXPECT_EQ(inner, Read::Walk);
  const auto second = make_info(2.0, 2);
  t.walks[1](&second);
  EXPECT_EQ(inner_answers, 1);
  EXPECT_EQ(t.sizes.size(), 0u);
}

TEST(ProbeBatcher, CohortAnswerIsStoredAndReportedOnce) {
  // With caching on, a cohort's answer is stored once, before the fan-out:
  // a waiter that reads again from inside its callback already hits it.
  // A missed walk fans out Missed to every waiter and reports nothing.
  Table t{SimTime::millis(300), true};
  const auto topic = pastry::tree_id("GPU", "admin");
  std::vector<TreeSize> got;
  Read inner = Read::Walk;
  t.sizes.read(topic, [&](const TreeSize& size) {
    got.push_back(size);
    inner = t.sizes.read(topic, [](const TreeSize&) {});
  });
  for (int i = 0; i < 2; ++i) {
    t.sizes.read(topic, [&got](const TreeSize& size) { got.push_back(size); });
  }
  ASSERT_EQ(t.walks.size(), 1u);
  const auto answer = make_info(5.0, 2);
  t.walks[0](&answer);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(inner, Read::Hit);
  EXPECT_EQ(t.answers.size(), 1u);
  EXPECT_EQ(t.answers[0].second, Stored::Stored);

  const auto other = pastry::tree_id("CPU", "admin");
  got.clear();
  for (int i = 0; i < 3; ++i) {
    t.sizes.read(other, [&got](const TreeSize& size) { got.push_back(size); });
  }
  ASSERT_EQ(t.walks.size(), 2u);
  t.walks[1](nullptr);
  ASSERT_EQ(got.size(), 3u);
  for (const auto& g : got) EXPECT_EQ(g.from, From::Missed);
  EXPECT_EQ(t.answers.size(), 1u) << "a missed walk is no answer";
  EXPECT_EQ(t.sizes.size(), 1u) << "only the answered tree is stored";
}

TEST(AnswerCacheIntegration, HitInsideTtlThenFreshAfterExpiry) {
  core::ClusterConfig config;
  config.topology = net::Topology::single_site();
  config.seed = 5;
  config.metrics = true;
  config.node.scribe.aggregation_interval = SimTime::millis(100);
  config.node.query.qplane.cache_ttl = SimTime::millis(200);
  core::RBayCluster cluster(config);
  cluster.add_tree_spec(core::TreeSpec::from_predicate([] {
    query::Predicate p;
    p.attribute = "GPU";
    p.op = query::CompareOp::Eq;
    p.literal = store::AttributeValue{true};
    return p;
  }()));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.add_node(0).post("GPU", store::AttributeValue{true}).ok());
  }
  cluster.finalize();
  cluster.run_for(SimTime::seconds(2));
  cluster.run();

  auto count_query = [&](const char* label) {
    core::QueryOutcome out;
    bool done = false;
    cluster.node(2).query().execute_sql("SELECT COUNT FROM * WHERE GPU = true",
                                        [&](const core::QueryOutcome& o) {
                                          out = o;
                                          done = true;
                                        });
    cluster.run();
    EXPECT_TRUE(done) << label;
    EXPECT_TRUE(out.satisfied) << label;
    EXPECT_EQ(out.count, 8.0) << label;
    return out;
  };

  const auto first = count_query("warming query");
  EXPECT_FALSE(first.cached);
  EXPECT_FALSE(first.stale);

  cluster.run_for(SimTime::millis(100));
  const auto hit = count_query("inside the TTL window");
  EXPECT_TRUE(hit.cached);
  EXPECT_TRUE(hit.stale);
  EXPECT_GT(hit.staleness, SimTime::zero());
  EXPECT_LE(hit.staleness, SimTime::millis(200)) << "hit must respect the TTL bound";

  cluster.run_for(SimTime::millis(250));
  const auto after = count_query("past the TTL");
  EXPECT_FALSE(after.cached) << "expired entry must not be served";
  EXPECT_FALSE(after.stale);

  auto& fed = cluster.metrics()->fed();
  EXPECT_GE(fed.counter<"qplane.cache_hits">().value(), 1u);
  EXPECT_GE(fed.counter<"qplane.cache_misses">().value(), 1u);
}

TEST(AnswerCacheIntegration, CountsServedFromTheTableLeaveNoTimerBehind) {
  // A COUNT whose every size comes from the table completes inside
  // execute_sql; its attempt never waits, so it must arm no site timeout
  // (a cancelled one would sit in the event queue for the whole 3 s).
  core::ClusterConfig config;
  config.topology = net::Topology::single_site();
  config.seed = 5;
  config.node.scribe.aggregation_interval = SimTime::millis(100);
  config.node.query.qplane.cache_ttl = SimTime::seconds(10);
  core::RBayCluster cluster(config);
  cluster.add_tree_spec(core::TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.add_node(0).post("GPU", store::AttributeValue{true}).ok());
  }
  cluster.finalize();
  cluster.run_for(SimTime::seconds(2));

  auto& qi = cluster.node(2).query();
  int served = 0;
  auto count = [&] {
    qi.execute_sql("SELECT COUNT FROM * WHERE GPU = true", [&](const core::QueryOutcome& o) {
      EXPECT_TRUE(o.satisfied);
      EXPECT_EQ(o.count, 8.0);
      served += o.cached ? 1 : 0;
    });
  };
  count();  // warms the table through a root walk
  cluster.run_for(SimTime::millis(50));
  ASSERT_EQ(served, 0);

  auto& engine = cluster.engine();
  const auto pending = engine.pending();
  const auto event_nodes = engine.event_nodes();
  for (int i = 0; i < 1000; ++i) count();
  EXPECT_EQ(served, 1000) << "every COUNT must be answered from the table, synchronously";
  EXPECT_EQ(engine.pending(), pending);
  EXPECT_EQ(engine.event_nodes(), event_nodes);
}

/// Counter value out of a Registry::to_json() snapshot (counters are
/// emitted as "name":value).
std::uint64_t counter_in_json(const std::string& json, const std::string& name) {
  const auto key = "\"" + name + "\":";
  const auto at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + key.size()));
}

TEST(AnswerCacheIntegration, RootCrashInvalidatesThroughDegradedReplies) {
  // Chaos-composed regression on the chaos_root_crash machinery: warm the
  // cache, crash the tree root, and check the promoted replica's degraded
  // replies invalidate the cache rather than being cached — every answer
  // stays inside ttl (cached) or max-staleness (degraded), and the
  // post-failover fresh count is honest.
  const std::string scenario = R"(
topology uniform 4 0.5 40
seed 7
aggregation 200
heartbeat 250
anycast-timeout 1000
max-staleness 5000
cache-ttl 300
batch-probes on
tree GPU = true
nodes Site0 10
nodes Site1 10
nodes Site2 10
nodes Site3 10
post * GPU true
finalize
run 2s
query Site1 SELECT COUNT FROM Site1 WHERE GPU = true
expect satisfied
expect fresh
expect count 10
query Site1 SELECT COUNT FROM Site1 WHERE GPU = true
expect satisfied
expect cached
expect count 10
expect staleness-le 300
run 400ms
crash-root Site1
query Site1 SELECT COUNT FROM Site1 WHERE GPU = true
expect satisfied
expect stale
expect uncached
expect count 10
query Site1 SELECT COUNT FROM Site1 WHERE GPU = true
expect satisfied
expect stale
expect uncached
run 6s
query Site1 SELECT COUNT FROM Site1 WHERE GPU = true
expect satisfied
expect fresh
expect count 9
recover-root
run 4s
query Site1 SELECT COUNT FROM Site1 WHERE GPU = true
expect satisfied
expect fresh
expect count 10
check-invariants
)";
  tools::ScenarioOptions options;
  options.metrics = true;
  const auto report = tools::run_scenario(scenario, options);
  ASSERT_TRUE(report.ok()) << report.error();
  // Exactly one hit across the whole run: the pre-crash repeat.  The two
  // degraded (post-failover) answers were never cached, so the repeat
  // query inside the degraded window could not hit — that, plus the
  // back-to-back `expect uncached` pair above, is the invalidation
  // contract observed end to end.
  EXPECT_EQ(counter_in_json(report.value().metrics_json, "qplane.cache_hits"), 1u)
      << report.value().metrics_json;
  EXPECT_GE(counter_in_json(report.value().metrics_json, "qplane.cache_misses"), 4u);
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


TEST(ProbeBatcherIntegration, RootSetAnswerToACohortCountsOnce) {
  // Hot-root rotation: after its first answer the gateway probes the
  // tree's root set round-robin, so some walks are answered by a serving
  // replica holder.  Each round is a cohort of three concurrent COUNT
  // queries on one walk: a holder's answer counts one rootset answer,
  // however many waiters it fans out to.
  core::ClusterConfig config;
  config.topology = net::Topology::uniform(1, 0.5, 0.5);
  config.seed = 3;
  config.metrics = true;
  config.node.scribe.aggregation_interval = SimTime::millis(100);
  config.node.scribe.max_staleness = SimTime::seconds(5);
  config.node.scribe.root_set = 2;
  config.node.query.qplane.batch_probes = true;  // cache off: every round walks
  core::RBayCluster cluster(config);
  cluster.add_tree_spec(core::TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(24);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.node(i).post("GPU", true).ok());
  }
  cluster.finalize();
  cluster.run_for(SimTime::seconds(2));
  const auto topic = cluster.tree_table().topic(0, 0);
  const std::size_t origin = cluster.overlay().root_of_in_site(topic, 0) == 0 ? 1 : 0;

  auto& fed = cluster.metrics()->fed();
  std::uint64_t rotated_rounds = 0;
  for (int round = 0; round < 6; ++round) {
    const auto answers_before = fed.counter<"qplane.rootset_answers">().value();
    const auto rotations_before = fed.counter<"scribe.rotations">().value();
    const auto walks_before = fed.counter<"qplane.probe_walks">().value();
    std::vector<core::QueryOutcome> outcomes;
    for (int i = 0; i < 3; ++i) {
      cluster.node(origin).query().execute_sql(
          "SELECT COUNT FROM * WHERE GPU = true",
          [&outcomes](const core::QueryOutcome& o) { outcomes.push_back(o); });
    }
    cluster.run_for(SimTime::millis(200));
    ASSERT_EQ(outcomes.size(), 3u) << "round " << round;
    for (const auto& o : outcomes) EXPECT_EQ(o.count, 24.0) << "round " << round;
    EXPECT_EQ(fed.counter<"qplane.probe_walks">().value() - walks_before, 1u);
    const auto rotations = fed.counter<"scribe.rotations">().value() - rotations_before;
    EXPECT_EQ(fed.counter<"qplane.rootset_answers">().value() - answers_before, rotations)
        << "round " << round << ": one count per root-set answer, not per waiter";
    rotated_rounds += rotations;
  }
  EXPECT_GT(rotated_rounds, 0u) << "round-robin never reached a serving holder";
}

}  // namespace
}  // namespace rbay::qplane
