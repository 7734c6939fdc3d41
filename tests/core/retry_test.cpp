// A query has one retry path: the query interface's truncated exponential
// backoff (§III.D).  A walk that misses its anycast deadline ends as a
// miss, which that backoff retries; a slow walk's late result is an
// orphan whose reservations are released; and a site that answers "every
// probed tree is empty" is a definitive no, which no retry can change.

#include <gtest/gtest.h>

#include "core/cluster.hpp"

namespace rbay::core {
namespace {

constexpr std::size_t kNodes = 12;

/// One site, a GPU = true tree, node 0 the querying customer and never a
/// member; `members` other nodes post GPU = true.
struct RetryFixture {
  RBayCluster cluster;

  RetryFixture(std::size_t members, util::SimTime anycast_timeout, double rtt_ms = 0.5,
               util::SimTime cache_ttl = util::SimTime::zero())
      : cluster(make_config(anycast_timeout, rtt_ms, cache_ttl)) {
    cluster.add_tree_spec(TreeSpec::from_predicate(
        {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
    cluster.populate(kNodes);
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      EXPECT_TRUE(cluster.node(i).post("GPU", i != 0 && i <= members).ok());
    }
    cluster.finalize();
    cluster.run_for(util::SimTime::seconds(2));  // aggregation warm-up
  }

  static ClusterConfig make_config(util::SimTime anycast_timeout, double rtt_ms,
                                   util::SimTime cache_ttl) {
    ClusterConfig config;
    config.topology = net::Topology::uniform(1, rtt_ms, rtt_ms);
    config.node.scribe.aggregation_interval = util::SimTime::millis(100);
    config.node.scribe.anycast_timeout = anycast_timeout;
    config.node.query.site_timeout = util::SimTime::seconds(5);
    config.node.query.reservation_hold = util::SimTime::seconds(30);
    config.node.query.max_attempts = 3;
    config.node.query.qplane.cache_ttl = cache_ttl;
    config.metrics = true;
    return config;
  }

  std::uint64_t counter(const std::string& name) {
    const auto* c = cluster.metrics()->fed().find_counter(name);
    return c == nullptr ? 0 : c->value();
  }

  /// Starts `sql` from node 0; the outcome lands in `out`, `done` flips.
  void start(const std::string& sql, QueryOutcome& out, bool& done) {
    cluster.node(0).query().execute_sql(sql, [&out, &done](const QueryOutcome& o) {
      out = o;
      done = true;
    });
  }

  /// Runs in small steps until `name` reads at least `value`.
  void run_until_counter(const std::string& name, std::uint64_t value) {
    for (int step = 0; step < 200000 && counter(name) < value; ++step) {
      cluster.run_for(util::SimTime::micros(20));
    }
    ASSERT_GE(counter(name), value) << name << " never reached " << value;
  }
};

TEST(QueryRetry, WalkDeadlineMissIsRetriedByTheQueryBackoff) {
  RetryFixture f{kNodes - 1, util::SimTime::millis(100)};
  QueryOutcome out;
  bool done = false;
  f.start("SELECT 3 FROM * WHERE GPU = true", out, done);
  // Lose every message once the walk is dispatched: node 0 is no member,
  // so the walk must cross the wire to fill its three slots, and dies.
  f.run_until_counter("scribe.anycasts", 1);
  f.cluster.network().set_drop_probability(1.0);
  f.run_until_counter("scribe.anycast_timeouts", 1);
  f.cluster.network().set_drop_probability(0.0);
  f.cluster.run_for(util::SimTime::seconds(2));

  ASSERT_TRUE(done) << "query never completed";
  EXPECT_TRUE(out.satisfied) << out.error;
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(out.nodes.size(), 3u);
  EXPECT_EQ(f.counter("scribe.anycast_timeouts"), 1u);
  EXPECT_EQ(f.counter("query.backoff_retries"), 1u);
  EXPECT_EQ(f.counter("scribe.size_probe_timeouts"), 0u);
}

TEST(QueryRetry, SlowWalkOrphanReleasesLeaveNoLockReserved) {
  // 10 ms RTT: a probe comes home well inside the 25 ms deadline, a walk
  // that must fill six slots cannot.  Every attempt misses; each walk
  // comes home later as an orphan carrying the reservations it took.
  RetryFixture f{kNodes - 1, util::SimTime::millis(25), 10.0};
  QueryOutcome out;
  bool done = false;
  f.start("SELECT 6 FROM * WHERE GPU = true", out, done);
  f.cluster.run_for(util::SimTime::seconds(3));

  ASSERT_TRUE(done) << "query never completed";
  EXPECT_FALSE(out.satisfied);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(f.counter("scribe.size_probe_timeouts"), 0u);
  EXPECT_EQ(f.counter("scribe.anycast_timeouts"), 3u);
  EXPECT_EQ(f.counter("scribe.anycast_orphans"), 3u);
  EXPECT_GE(f.counter("query.orphan_releases"), 6u);
  const auto now = f.cluster.engine().now();
  for (std::size_t i = 0; i < f.cluster.size(); ++i) {
    EXPECT_FALSE(f.cluster.node(i).lock().reserved(now))
        << "node " << i << " still reserved after every orphan was released";
  }
}

TEST(QueryRetry, SelectForAValueNoNodeHoldsEndsOnTheFirstAttempt) {
  // The GPU = true tree has no member: the site's probe is answered, the
  // answer is "empty", and a retry could not change it.
  RetryFixture f{0, util::SimTime::millis(100)};
  QueryOutcome out;
  bool done = false;
  f.start("SELECT 1 FROM * WHERE GPU = true", out, done);
  f.cluster.run_for(util::SimTime::seconds(2));

  ASSERT_TRUE(done) << "query never completed";
  EXPECT_FALSE(out.satisfied);
  EXPECT_TRUE(out.error.empty()) << out.error;
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(f.counter("query.backoff_retries"), 0u);
  EXPECT_EQ(f.counter("scribe.anycasts"), 0u);
}

TEST(QueryRetry, CachedEmptyAnswerIsRetriedByTheQueryBackoff) {
  // Only a root's answer on this attempt is final: a size the table
  // stored may be up to cache_ttl old, so an empty size it serves is not.
  RetryFixture f{0, util::SimTime::millis(100), 0.5, util::SimTime::seconds(2)};
  QueryOutcome first;
  QueryOutcome second;
  bool done = false;
  f.start("SELECT 1 FROM * WHERE GPU = true", first, done);
  f.cluster.run_for(util::SimTime::seconds(1));
  ASSERT_TRUE(done) << "query never completed";
  EXPECT_EQ(first.attempts, 1);  // the root answered
  done = false;
  f.start("SELECT 1 FROM * WHERE GPU = true", second, done);
  f.cluster.run_for(util::SimTime::seconds(1));

  ASSERT_TRUE(done) << "query never completed";
  EXPECT_FALSE(second.satisfied);
  EXPECT_GE(f.counter("qplane.cache_hits"), 1u);
  EXPECT_EQ(second.attempts, 3);
}

TEST(QueryRetry, SizeProbeDeadlineIsRetriedByTheQueryBackoff) {
  // A probe that misses its deadline reads as an empty tree, but not a
  // definitive one: the query retries and finds the members.
  RetryFixture f{kNodes - 1, util::SimTime::millis(100)};
  const auto topic = f.cluster.tree_table().topic(0, 0);
  ASSERT_NE(f.cluster.overlay().root_of_in_site(topic, 0), 0u)
      << "the probe must cross the wire";
  f.cluster.network().set_drop_probability(1.0);
  QueryOutcome out;
  bool done = false;
  f.start("SELECT 1 FROM * WHERE GPU = true", out, done);
  f.run_until_counter("scribe.size_probe_timeouts", 1);
  f.cluster.network().set_drop_probability(0.0);
  f.cluster.run_for(util::SimTime::seconds(2));

  ASSERT_TRUE(done) << "query never completed";
  EXPECT_TRUE(out.satisfied) << out.error;
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(f.counter("scribe.size_probe_timeouts"), 1u);
  EXPECT_EQ(f.counter("query.backoff_retries"), 1u);
}

TEST(QueryRetry, MissedProbeLeavesNoEmptyAnswerInTheTable) {
  // A probe that missed its deadline is no answer, so the size table
  // stores nothing for it: once the network heals, the next query walks to
  // the root, stores its answer, and a query after it is served from the
  // table and satisfied on its first attempt.
  RetryFixture f{kNodes - 1, util::SimTime::millis(100), 0.5, util::SimTime::seconds(2)};
  const auto topic = f.cluster.tree_table().topic(0, 0);
  ASSERT_NE(f.cluster.overlay().root_of_in_site(topic, 0), 0u)
      << "the probe must cross the wire";
  f.cluster.network().set_drop_probability(1.0);
  QueryOutcome first;
  bool done = false;
  f.start("SELECT 1 FROM * WHERE GPU = true", first, done);
  f.run_until_counter("scribe.size_probe_timeouts", 1);
  f.cluster.network().set_drop_probability(0.0);
  f.cluster.run_for(util::SimTime::millis(500));
  ASSERT_TRUE(done) << "first query never completed";
  EXPECT_TRUE(first.satisfied) << first.error;
  EXPECT_EQ(first.attempts, 2);
  f.cluster.node(0).query().release(first);

  QueryOutcome second;
  done = false;
  f.start("SELECT 1 FROM * WHERE GPU = true", second, done);
  f.cluster.run_for(util::SimTime::millis(500));
  ASSERT_TRUE(done) << "second query never completed";
  EXPECT_TRUE(second.satisfied) << second.error;
  EXPECT_EQ(second.attempts, 1);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(f.counter("scribe.size_probe_timeouts"), 1u);
}

TEST(QueryRetry, RootThatAnswersEmptyEndsTheConjunctionWithoutAnAnycast) {
  // 11 of 12 nodes hold a GPU, every node is busy: the CPU_utilization
  // < 10% root answers 0, so no node can match both predicates.  The site
  // sends no anycast into the GPU tree, and its no is final.
  RBayCluster cluster(
      RetryFixture::make_config(util::SimTime::millis(100), 0.5, util::SimTime::zero()));
  cluster.add_tree_spec(
      TreeSpec::from_predicate({"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}}));
  cluster.populate(kNodes);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.node(i).post("GPU", i != 0).ok());
    ASSERT_TRUE(cluster.node(i).post("CPU_utilization", 0.8).ok());
  }
  cluster.finalize();
  cluster.run_for(util::SimTime::seconds(2));

  QueryOutcome out;
  bool done = false;
  cluster.node(0).query().execute_sql(
      "SELECT 1 FROM * WHERE GPU = true AND CPU_utilization < 10%",
      [&](const QueryOutcome& o) {
        out = o;
        done = true;
      });
  cluster.run_for(util::SimTime::seconds(1));

  ASSERT_TRUE(done) << "query never completed";
  EXPECT_FALSE(out.satisfied);
  EXPECT_TRUE(out.error.empty()) << out.error;
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.members_visited, 0);
  EXPECT_EQ(cluster.metrics()->fed().counter<"scribe.anycasts">().value(), 0u);

  // COUNT over the same conjunction reads the empty tree's 0.
  QueryOutcome counted;
  done = false;
  cluster.node(0).query().execute_sql(
      "SELECT COUNT FROM * WHERE GPU = true AND CPU_utilization < 10%",
      [&](const QueryOutcome& o) {
        counted = o;
        done = true;
      });
  cluster.run_for(util::SimTime::seconds(1));
  ASSERT_TRUE(done) << "count never completed";
  EXPECT_TRUE(counted.satisfied);
  EXPECT_DOUBLE_EQ(counted.count, 0.0);
}

}  // namespace
}  // namespace rbay::core
