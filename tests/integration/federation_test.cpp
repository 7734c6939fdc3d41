#include <gtest/gtest.h>

#include "core/churn.hpp"

// Whole-system integration: the full federation running everything at once
// — monitoring churn, policy handlers, admin commands, cross-site queries,
// reservations — plus determinism guarantees.

namespace rbay::core {
namespace {

using util::SimTime;

ClusterConfig federation_config(std::uint64_t seed) {
  ClusterConfig config;
  config.topology = net::Topology::ec2_eight_sites();
  config.seed = seed;
  config.node.scribe.aggregation_interval = SimTime::millis(250);
  config.node.query.max_attempts = 5;
  return config;
}

/// Builds a "realistic" federation: instance trees + idle tree, monitors
/// driving CPU churn, password policies on half the sites.
struct Federation {
  RBayCluster cluster;

  explicit Federation(std::uint64_t seed, std::size_t per_site = 8)
      : cluster(federation_config(seed)) {
    for (const char* type : {"m3.large", "c3.xlarge", "t2.micro"}) {
      cluster.add_tree_spec(TreeSpec::from_predicate(
          {"instance", query::CompareOp::Eq, store::AttributeValue{type}}));
    }
    cluster.add_tree_spec(TreeSpec::from_predicate(
        {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.5}}));
    cluster.populate(per_site);

    const std::string password_policy = R"(
AA = {PasswordHash = crypto.sha1("opensesame")}
function onGet(caller, payload)
  if crypto.sha1(payload) == AA.PasswordHash then return true end
  return nil
end)";
    const char* types[] = {"m3.large", "c3.xlarge", "t2.micro"};
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      auto& node = cluster.node(i);
      const bool gated = node.site() % 2 == 1;  // odd sites require the password
      EXPECT_TRUE(
          node.post("instance", types[i % 3], gated ? password_policy : "").ok());
      node.enable_monitor({{"CPU_utilization", monitor::RandomWalk{0.4, 0.0, 1.0, 0.1}}},
                          SimTime::millis(500));
    }
    cluster.finalize();
    cluster.run_for(SimTime::seconds(3));
  }

  QueryOutcome run_query(std::size_t from, const std::string& sql) {
    QueryOutcome outcome;
    cluster.node(from).query().execute_sql(sql,
                                           [&](const QueryOutcome& o) { outcome = o; });
    cluster.run();
    return outcome;
  }
};

TEST(Federation, CompositeQueryAcrossMonitoredFederation) {
  Federation f{7};
  const auto origin = f.cluster.nodes_in_site(0)[1];
  const auto outcome = f.run_query(
      origin, "SELECT 3 FROM * WHERE instance = 'm3.large' AND CPU_utilization < 0.5 "
              "WITH \"opensesame\"");
  ASSERT_TRUE(outcome.satisfied) << outcome.error;
  EXPECT_EQ(outcome.nodes.size(), 3u);
  for (const auto& c : outcome.nodes) {
    const auto idx = f.cluster.index_of(c.node.id);
    EXPECT_EQ(f.cluster.node(idx).attributes().find("instance")->value().as_string(),
              "m3.large");
    EXPECT_LT(
        f.cluster.node(idx).attributes().find("CPU_utilization")->value().as_double(), 0.5);
  }
}

TEST(Federation, PasswordGatedSitesRejectWithoutCredentials) {
  Federation f{11};
  const auto origin = f.cluster.nodes_in_site(0)[1];
  // Odd sites (incl. Oregon = site 1) require the password.
  const auto denied =
      f.run_query(origin, "SELECT 1 FROM Oregon WHERE instance = 'c3.xlarge'");
  EXPECT_FALSE(denied.satisfied);
  const auto granted = f.run_query(
      origin, "SELECT 1 FROM Oregon WHERE instance = 'c3.xlarge' WITH \"opensesame\"");
  EXPECT_TRUE(granted.satisfied) << granted.error;
}

TEST(Federation, MembershipTracksMonitorChurn) {
  Federation f{13};
  f.cluster.run_for(SimTime::seconds(20));  // let the walks wander
  const auto& idle_spec = f.cluster.tree_specs()[3];
  int mismatches = 0;
  for (std::size_t i = 0; i < f.cluster.size(); ++i) {
    const bool is_idle =
        f.cluster.node(i).attributes().find("CPU_utilization")->value().as_double() < 0.5;
    if (f.cluster.node(i).subscribed_to(idle_spec) != is_idle) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0) << "tree membership out of sync with monitored values";
}

TEST(Federation, CommittedPackageSurvivesOtherTraffic) {
  Federation f{17};
  const auto origin = f.cluster.nodes_in_site(2)[0];
  auto mine = f.run_query(
      origin, "SELECT 4 FROM * WHERE instance = 't2.micro' WITH \"opensesame\"");
  ASSERT_TRUE(mine.satisfied) << mine.error;
  f.cluster.node(origin).query().commit(mine);
  f.cluster.run();

  // A burst of other customers cannot steal committed nodes.
  for (int q = 0; q < 6; ++q) {
    const auto other = f.cluster.nodes_in_site((q % 7) + 1)[1];
    auto theirs = f.run_query(
        other, "SELECT 2 FROM * WHERE instance = 't2.micro' WITH \"opensesame\"");
    if (!theirs.satisfied) continue;
    for (const auto& c : theirs.nodes) {
      for (const auto& m : mine.nodes) {
        EXPECT_NE(c.node.id, m.node.id) << "committed node was re-sold";
      }
    }
    f.cluster.node(other).query().release(theirs);
    f.cluster.run();
  }
}

TEST(Federation, AdministrativeIsolationKeepsSiteTrafficInside) {
  // §III.E security property: updates, probes, joins, aggregation and
  // site-local queries never leave the site.  We sever EVERY cross-site
  // link; a fully local workload must then run with zero dropped messages.
  RBayCluster cluster{federation_config(31)};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(8);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.node(i).post("GPU", true).ok());
  }
  for (net::SiteId a = 0; a < 8; ++a) {
    for (net::SiteId b = a + 1; b < 8; ++b) cluster.network().set_partitioned(a, b, true);
  }
  cluster.network().reset_stats();
  cluster.finalize();  // joins are site-scoped
  cluster.run_for(SimTime::seconds(3));  // aggregation rounds

  // Site-local query + admin multicast, all within Tokyo.
  const auto tokyo = *cluster.directory().site_by_name("Tokyo");
  const auto origin = cluster.nodes_in_site(tokyo)[1];
  QueryOutcome outcome;
  cluster.node(origin).query().execute_sql("SELECT 2 FROM Tokyo WHERE GPU = true",
                                           [&](const QueryOutcome& o) { outcome = o; });
  cluster.run();
  EXPECT_TRUE(outcome.satisfied) << outcome.error;
  cluster.node(cluster.nodes_in_site(tokyo)[0])
      .admin_deliver(cluster.tree_specs()[0], "GPU", "noop");
  cluster.run();

  EXPECT_EQ(cluster.network().stats().messages_dropped, 0u)
      << "site-scoped traffic attempted to cross a site boundary";
}

TEST(Federation, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Federation f{seed, 6};
    const auto origin = f.cluster.nodes_in_site(0)[1];
    auto outcome = f.run_query(
        origin, "SELECT 3 FROM * WHERE instance = 'm3.large' WITH \"opensesame\"");
    std::string signature = std::to_string(outcome.satisfied) + "|" +
                            std::to_string(outcome.latency().as_micros()) + "|";
    for (const auto& c : outcome.nodes) signature += c.node.id.to_hex() + ",";
    signature += '|';
    signature += std::to_string(f.cluster.network().stats().messages_sent);
    return signature;
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

TEST(Federation, SurvivesGatewayAdjacentChurn) {
  Federation f{23};
  ChurnConfig churn_config;
  churn_config.mean_uptime_s = 40.0;
  churn_config.mean_downtime_s = 8.0;
  churn_config.churny_fraction = 0.25;
  // Enable repair for this test.
  // (Heartbeats were not configured in Federation; queries rely on anycast
  // rerouting + retries instead — exactly the robustness under test.)
  ChurnDriver churn{f.cluster, churn_config};
  churn.start();
  f.cluster.run_for(SimTime::seconds(30));

  int satisfied = 0;
  for (int q = 0; q < 8; ++q) {
    std::size_t from;
    do {
      from = f.cluster.engine().rng().uniform(f.cluster.size());
    } while (f.cluster.overlay().is_failed(from));
    auto outcome = f.run_query(
        from, "SELECT 1 FROM * WHERE instance = 'm3.large' WITH \"opensesame\"");
    if (outcome.satisfied) {
      ++satisfied;
      f.cluster.node(from).query().release(outcome);
      f.cluster.run();
    }
    f.cluster.run_for(SimTime::seconds(3));
  }
  EXPECT_GE(satisfied, 6);
}

}  // namespace
}  // namespace rbay::core
