// A site answer that lands after its query finished still carries
// reservations its members took for that query.  The query interface must
// release them at once instead of leaving the nodes reserved — and
// refusing every other customer — until the reservation hold expires.

#include <gtest/gtest.h>

#include "core/cluster.hpp"

namespace rbay::core {
namespace {

constexpr std::size_t kPerSite = 10;

/// Two sites, 10 ms RTT inside a site and 400 ms across, every node a GPU
/// node, reservations held for 30 s.
struct LateAnswerFixture {
  RBayCluster cluster;

  LateAnswerFixture(util::SimTime site_timeout, int max_attempts)
      : cluster(make_config(site_timeout, max_attempts)) {
    cluster.add_tree_spec(TreeSpec::from_predicate(
        {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
    cluster.populate(kPerSite);
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      EXPECT_TRUE(cluster.node(i).post("GPU", true).ok());
    }
    cluster.finalize();
    cluster.run_for(util::SimTime::seconds(2));  // aggregation warm-up
  }

  static ClusterConfig make_config(util::SimTime site_timeout, int max_attempts) {
    ClusterConfig config;
    config.topology = net::Topology::uniform(2, 10.0, 400.0);
    config.node.scribe.aggregation_interval = util::SimTime::millis(100);
    config.node.query.reservation_hold = util::SimTime::seconds(30);
    config.node.query.site_timeout = site_timeout;
    config.node.query.max_attempts = max_attempts;
    config.metrics = true;
    return config;
  }

  /// Runs `sql` from site 0's first node, then one more simulated second.
  QueryOutcome query_then_wait(const std::string& sql) {
    QueryOutcome out;
    bool done = false;
    cluster.node(cluster.nodes_in_site(0).front()).query().execute_sql(
        sql, [&](const QueryOutcome& o) {
          out = o;
          done = true;
        });
    cluster.run_for(util::SimTime::seconds(1));
    EXPECT_TRUE(done) << "query never completed";
    return out;
  }

  /// Nodes in `site` still reserved (or leased) by `query_id`.
  std::size_t held_by(net::SiteId site, const query::QueryId& query_id) {
    std::size_t held = 0;
    for (const auto i : cluster.nodes_in_site(site)) {
      if (cluster.node(i).lock().holder() == query_id) ++held;
    }
    return held;
  }

  std::uint64_t orphan_releases() {
    return cluster.metrics()->fed().counter<"query.orphan_releases">().value();
  }
};

TEST(LateSiteAnswer, RemoteReplyAfterCompletionReleasesItsReservations) {
  // The local site answers in a few intra-site round trips, well inside
  // the 150 ms site timeout; site 1's reply needs a 400 ms round trip, so
  // the query completes from site 0 alone and site 1 answers late.
  LateAnswerFixture f{util::SimTime::millis(150), 5};
  const auto out = f.query_then_wait("SELECT 1 FROM * WHERE GPU = true");
  ASSERT_TRUE(out.satisfied) << out.error;
  ASSERT_EQ(out.sites_timed_out, 1);
  ASSERT_EQ(out.sites_answered, std::vector<net::SiteId>{0});
  EXPECT_EQ(f.held_by(1, out.query_id), 0u);
  EXPECT_EQ(f.held_by(0, out.query_id), 1u);  // the customer's node stays reserved
  EXPECT_EQ(f.orphan_releases(), 1u);
}

TEST(LateSiteAnswer, LocalAnswerAfterTimeoutReleasesItsReservations) {
  // A 2 ms site timeout expires before the local probe and anycast can
  // finish; with one attempt the query fails, and the local answer that
  // arrives afterwards must not strand its reservation.
  LateAnswerFixture f{util::SimTime::millis(2), 1};
  const auto out = f.query_then_wait("SELECT 1 FROM Site0 WHERE GPU = true");
  ASSERT_FALSE(out.satisfied);
  ASSERT_EQ(out.sites_timed_out, 1);
  EXPECT_EQ(f.held_by(0, out.query_id), 0u);
  EXPECT_EQ(f.orphan_releases(), 1u);
}

TEST(LateSiteAnswer, SiteThatNeverAnswersEndsTheAttemptAtTheSiteTimeout) {
  // Site 0 -> site 1 blackholes, so the gateway never hears the request:
  // the site timeout, armed because the attempt still waits after its
  // dispatch, is what ends the query.
  LateAnswerFixture f{util::SimTime::millis(150), 1};
  f.cluster.network().conditioner().set_asym_partition(0, 1, true);
  const auto out = f.query_then_wait("SELECT 1 FROM Site1 WHERE GPU = true");
  ASSERT_FALSE(out.satisfied);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.sites_timed_out, 1);
  EXPECT_TRUE(out.sites_answered.empty());
  EXPECT_EQ(out.latency(), util::SimTime::millis(150));
  EXPECT_EQ(f.cluster.metrics()->fed().counter<"query.site_timeouts">().value(), 1u);
}

TEST(LateSiteAnswer, EarlierAttemptsLateReplyLeavesTheCommittedNodeHeld) {
  // Site 1 has a single GPU node, so every attempt reserves that node.  A
  // gray link slows site 1's attempt-1 reply to about 2 s, far past the
  // 600 ms site timeout; the link clears before attempt 2 replies, so
  // attempt 2 returns the node and the customer commits it.  When the
  // attempt-1 reply lands afterwards, its release is older than the
  // attempt that reserved the node again and must leave the lease alone.
  RBayCluster cluster(LateAnswerFixture::make_config(util::SimTime::millis(600), 2));
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(kPerSite);
  const auto gpu = cluster.nodes_in_site(1).front();
  EXPECT_TRUE(cluster.node(gpu).post("GPU", true).ok());
  cluster.finalize();
  cluster.run_for(util::SimTime::seconds(2));  // aggregation warm-up

  auto& origin = cluster.node(cluster.nodes_in_site(0).front());
  cluster.network().conditioner().set_gray(1, 0, 10.0);
  QueryOutcome out;
  bool done = false;
  origin.query().execute_sql("SELECT 1 FROM Site1 WHERE GPU = true",
                             [&](const QueryOutcome& o) {
                               out = o;
                               done = true;
                               origin.query().commit(o);
                             });
  cluster.run_for(util::SimTime::millis(610));  // attempt 1 timed out
  cluster.network().conditioner().clear(1, 0);
  cluster.run_for(util::SimTime::seconds(3));
  ASSERT_TRUE(done) << "query never completed";
  ASSERT_TRUE(out.satisfied) << out.error;
  ASSERT_EQ(out.attempts, 2);
  ASSERT_EQ(out.nodes.size(), 1u);
  ASSERT_EQ(out.nodes[0].node.id, cluster.node(gpu).self().id);
  const auto now = cluster.engine().now();
  EXPECT_EQ(cluster.node(gpu).lock().holder(), out.query_id);
  EXPECT_TRUE(cluster.node(gpu).lock().committed(now));
  EXPECT_EQ(cluster.metrics()->fed().counter<"query.orphan_releases">().value(), 1u);
}

}  // namespace
}  // namespace rbay::core
