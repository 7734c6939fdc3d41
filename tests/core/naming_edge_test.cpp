// Hybrid-naming edge cases: taxonomy-chain resolution when the existence
// tree's site root crashes mid-query, and probes of empty or unbacked
// subtrees, which must answer cleanly (COUNT 0 / bounded denial), never
// hang or crash.

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "core/query_interface.hpp"

namespace rbay::core {
namespace {

struct TaxonomyFixture {
  RBayCluster cluster;

  explicit TaxonomyFixture(std::uint64_t seed, int max_attempts = 3)
      : cluster(make_config(seed, max_attempts)) {
    cluster.add_tree_spec(TreeSpec::existence("CPU"));
    Taxonomy tax;
    tax.add_major("CPU");
    tax.link("CPU_brand", "CPU");
    tax.link("CPU_model", "CPU_brand");  // nested: minor under a minor
    cluster.set_taxonomy(std::move(tax));
    for (net::SiteId s = 0; s < 2; ++s) {
      for (int i = 0; i < 6; ++i) cluster.add_node(s);
    }
  }

  static ClusterConfig make_config(std::uint64_t seed, int max_attempts) {
    ClusterConfig config;
    config.topology = net::Topology::uniform(2, 0.5, 40.0);
    config.seed = seed;
    config.node.scribe.aggregation_interval = util::SimTime::millis(200);
    config.node.scribe.heartbeat_interval = util::SimTime::millis(250);
    config.node.query.max_attempts = max_attempts;
    return config;
  }

  void provision_cpus() {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      ASSERT_TRUE(cluster.node(i).post("CPU", "Intel(R) Core(TM)").ok());
      ASSERT_TRUE(
          cluster.node(i).post("CPU_model", i % 2 == 0 ? "i7" : "i5").ok());
    }
    cluster.finalize();
    cluster.run_for(util::SimTime::seconds(2));
  }

  QueryOutcome run_query(std::size_t from, const std::string& sql,
                         util::SimTime patience = util::SimTime::zero()) {
    QueryOutcome out;
    bool done = false;
    cluster.node(from).query().execute_sql(sql, [&](const QueryOutcome& o) {
      out = o;
      done = true;
    });
    if (patience != util::SimTime::zero()) cluster.run_for(patience);
    cluster.run();
    EXPECT_TRUE(done) << "query never completed: " << sql;
    return out;
  }
};

TEST(NamingEdge, NestedLinkSurvivesExistenceRootCrashMidQuery) {
  TaxonomyFixture f{11, /*max_attempts=*/8};
  f.provision_cpus();

  // The CPU_model predicate resolves through CPU_brand -> CPU to the
  // has:CPU existence tree; crash that tree's Site0 root after the query
  // is in flight but before the simulator drains it.
  const auto topic = site_topic("has:CPU", "Site0");
  const auto root = f.cluster.overlay().root_of_in_site(topic, 0);
  std::size_t from = SIZE_MAX;
  for (const auto i : f.cluster.nodes_in_site(0)) {
    if (i != root) {
      from = i;
      break;
    }
  }
  ASSERT_NE(from, SIZE_MAX);

  QueryOutcome out;
  bool done = false;
  f.cluster.node(from).query().execute_sql(
      "SELECT 3 FROM * WHERE CPU_model = 'i7'", [&](const QueryOutcome& o) {
        out = o;
        done = true;
      });
  f.cluster.overlay().fail_node(root);
  // Background heartbeats repair the tree while the query retries.
  f.cluster.run_for(util::SimTime::seconds(20));
  f.cluster.run();
  ASSERT_TRUE(done) << "query wedged after root crash";
  ASSERT_TRUE(out.satisfied) << out.error << " (attempts " << out.attempts << ")";
  EXPECT_EQ(out.nodes.size(), 3u);
  for (const auto& c : out.nodes) {
    const auto idx = f.cluster.index_of(c.node.id);
    EXPECT_NE(idx, root);
    EXPECT_EQ(f.cluster.node(idx).attributes().find("CPU_model")->value().as_string(),
              "i7");
  }
}

TEST(NamingEdge, EmptySubtreeCountAnswersZero) {
  TaxonomyFixture f{12};
  // Nobody posts CPU: the existence tree is registered but empty.
  f.cluster.finalize();
  f.cluster.run_for(util::SimTime::seconds(2));
  const auto out = f.run_query(0, "SELECT COUNT FROM * WHERE CPU_brand = 'amd'");
  ASSERT_TRUE(out.satisfied) << out.error;
  EXPECT_DOUBLE_EQ(out.count, 0.0);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_TRUE(out.nodes.empty());
}

TEST(NamingEdge, EmptySubtreeSelectDeniesOnTheFirstAttempt) {
  TaxonomyFixture f{13};
  f.cluster.finalize();
  f.cluster.run_for(util::SimTime::seconds(2));
  const auto out =
      f.run_query(0, "SELECT 2 FROM * WHERE CPU_model = 'i9'", util::SimTime::seconds(30));
  EXPECT_FALSE(out.satisfied);
  EXPECT_TRUE(out.error.empty()) << out.error;  // a denial, not a failure
  // The major's existence tree answered "empty": a retry cannot change
  // that, so the query does not back off and re-probe.
  EXPECT_EQ(out.attempts, 1);
  EXPECT_TRUE(out.nodes.empty());
}

TEST(NamingEdge, UnlinkedAttributeDeniesWithoutTaxonomyEscape) {
  TaxonomyFixture f{14};
  f.provision_cpus();
  // RAM has no tree and no taxonomy entry: no tree resolves, every site
  // gives a final no, and the query denies without error or retry.
  const auto denied =
      f.run_query(0, "SELECT 1 FROM * WHERE RAM > 8", util::SimTime::seconds(30));
  EXPECT_FALSE(denied.satisfied);
  EXPECT_TRUE(denied.error.empty()) << denied.error;
  EXPECT_EQ(denied.attempts, 1);
  // COUNT over the same unresolvable predicate still answers, with zero.
  const auto counted = f.run_query(0, "SELECT COUNT FROM * WHERE RAM > 8");
  ASSERT_TRUE(counted.satisfied) << counted.error;
  EXPECT_DOUBLE_EQ(counted.count, 0.0);
}

}  // namespace
}  // namespace rbay::core
