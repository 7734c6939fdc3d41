// Answer cache: TTL/staleness contract at the unit level, live hits and
// expiry through a real federation, and the chaos-composed regression —
// a root crash must invalidate the cache via the degraded replies the
// promoted replica serves (reusing the scenarios/chaos_root_crash.rbay
// machinery: crash-root / recover-root / max-staleness).
#include <gtest/gtest.h>

#include <string>

#include "core/cluster.hpp"
#include "net/topology.hpp"
#include "pastry/node_id.hpp"
#include "qplane/answer_cache.hpp"
#include "tools/scenario.hpp"
#include "util/sim_time.hpp"

namespace rbay::qplane {
namespace {

using util::SimTime;
using Stored = AnswerCache::StoreResult;

AnswerCache::SizeInfo fresh_info(double value, std::uint64_t epoch) {
  AnswerCache::SizeInfo info{};
  info.value = value;
  info.epoch = epoch;
  return info;
}

TEST(AnswerCache, DisabledWhenTtlIsZero) {
  AnswerCache cache(SimTime::zero());
  EXPECT_FALSE(cache.enabled());
}

TEST(AnswerCache, HitWithinTtlIsStaleTaggedWithHonestAge) {
  AnswerCache cache(SimTime::millis(300));
  const auto topic = pastry::tree_id("GPU", "admin");
  cache.store(topic, fresh_info(8.0, 3), SimTime::millis(1000));

  const auto hit = cache.lookup(topic, SimTime::millis(1100));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value, 8.0);
  EXPECT_EQ(hit->epoch, 3u);
  EXPECT_TRUE(hit->stale) << "cache hits must surface as degraded reads";
  EXPECT_EQ(hit->age, SimTime::millis(100));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(AnswerCache, NeverServesOlderThanTtl) {
  // The staleness contract (docs/QUERY_PLANE.md): hit age <= ttl, which
  // implies the global bound ttl + max_staleness with room to spare.
  const auto ttl = SimTime::millis(250);
  AnswerCache cache(ttl);
  const auto topic = pastry::tree_id("CPU", "admin");
  cache.store(topic, fresh_info(4.0, 1), SimTime::zero());
  for (int ms = 0; ms <= 1000; ms += 50) {
    const auto hit = cache.lookup(topic, SimTime::millis(ms));
    if (hit) {
      EXPECT_LE(hit->age, ttl) << "at t=" << ms << "ms";
    }
  }
  // Past the TTL every lookup missed and the first one erased the entry.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(AnswerCache, DegradedStoreInvalidatesInsteadOfCaching) {
  AnswerCache cache(SimTime::millis(300));
  const auto topic = pastry::tree_id("GPU", "admin");
  cache.store(topic, fresh_info(8.0, 3), SimTime::zero());
  EXPECT_EQ(cache.size(), 1u);

  auto degraded = fresh_info(8.0, 3);
  degraded.stale = true;
  degraded.age = SimTime::millis(40);
  EXPECT_EQ(cache.store(topic, degraded, SimTime::millis(50)), Stored::Invalidated);
  EXPECT_EQ(cache.size(), 0u) << "a degraded reply must evict, not refresh";
  EXPECT_FALSE(cache.lookup(topic, SimTime::millis(60)).has_value());
}

TEST(AnswerCache, ReorderedStaleReplyCannotEvictFresherEntry) {
  // Regression: under network reordering a degraded (stale) SizeReply from
  // an older replication epoch can arrive AFTER a fresh answer from a newer
  // round was cached.  It used to evict unconditionally; now the stale
  // branch is epoch-gated, so only a same-or-newer-epoch degraded reply
  // invalidates.
  AnswerCache cache(SimTime::millis(300));
  const auto topic = pastry::tree_id("GPU", "admin");
  cache.store(topic, fresh_info(9.0, 5), SimTime::zero());

  auto late_stale = fresh_info(7.0, 3);  // pre-failover epoch, reordered
  late_stale.stale = true;
  late_stale.age = SimTime::millis(40);
  EXPECT_EQ(cache.store(topic, late_stale, SimTime::millis(10)), Stored::EpochRejected);

  const auto hit = cache.lookup(topic, SimTime::millis(20));
  ASSERT_TRUE(hit.has_value()) << "fresher entry must survive the stale straggler";
  EXPECT_EQ(hit->value, 9.0);
  EXPECT_EQ(hit->epoch, 5u);

  // A degraded reply at the cached epoch (or newer) still invalidates.
  auto current_stale = fresh_info(9.0, 5);
  current_stale.stale = true;
  EXPECT_EQ(cache.store(topic, current_stale, SimTime::millis(30)), Stored::Invalidated);
  EXPECT_FALSE(cache.lookup(topic, SimTime::millis(40)).has_value());
}

TEST(AnswerCache, LowerEpochStoreIsRejectedInsteadOfRollingBack) {
  // Regression: a late-arriving fresh answer from an older replication
  // epoch (slow probe overtaken by a newer round, or a pre-rotation answer
  // landing after the root set advanced) used to overwrite the newer
  // entry, rolling the cache back in time.
  AnswerCache cache(SimTime::millis(300));
  const auto topic = pastry::tree_id("GPU", "admin");
  cache.store(topic, fresh_info(9.0, 5), SimTime::zero());

  // Stragglers.
  EXPECT_EQ(cache.store(topic, fresh_info(7.0, 3), SimTime::millis(10)), Stored::EpochRejected);
  EXPECT_EQ(cache.store(topic, fresh_info(6.0, 4), SimTime::millis(20)), Stored::EpochRejected);

  const auto hit = cache.lookup(topic, SimTime::millis(50));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value, 9.0) << "the newer-epoch entry must survive stragglers";
  EXPECT_EQ(hit->epoch, 5u);

  // Same or newer epochs still refresh normally.
  EXPECT_EQ(cache.store(topic, fresh_info(10.0, 5), SimTime::millis(60)), Stored::Stored);
  EXPECT_EQ(cache.store(topic, fresh_info(11.0, 6), SimTime::millis(70)), Stored::Stored);
  const auto fresh = cache.lookup(topic, SimTime::millis(80));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->value, 11.0);
  EXPECT_EQ(fresh->epoch, 6u);
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

}  // namespace
}  // namespace rbay::qplane
