#include "core/naming.hpp"

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "util/contract.hpp"

namespace rbay::core {
namespace {

TEST(Naming, SiteTopicsAreSiteAndPredicateScoped) {
  const auto a = site_topic("GPU=true", "Virginia");
  EXPECT_EQ(a, site_topic("GPU=true", "Virginia"));
  EXPECT_NE(a, site_topic("GPU=true", "Tokyo"));
  EXPECT_NE(a, site_topic("GPU=false", "Virginia"));
}

TEST(Naming, TreeSpecFromPredicate) {
  query::Predicate p{"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}};
  const auto spec = TreeSpec::from_predicate(p);
  EXPECT_EQ(spec.canonical, "CPU_utilization<0.1");
  EXPECT_TRUE(spec.predicate.matches(store::AttributeValue{0.05}));
  EXPECT_FALSE(spec.predicate.matches(store::AttributeValue{0.15}));
}

TEST(Naming, ExistenceTreeMatchesAnyValue) {
  const auto spec = TreeSpec::existence("CPU");
  EXPECT_EQ(spec.canonical, "has:CPU");
  EXPECT_TRUE(spec.predicate.matches(store::AttributeValue{"Intel"}));
  EXPECT_TRUE(spec.predicate.matches(store::AttributeValue{3.4}));
  EXPECT_TRUE(spec.predicate.matches(store::AttributeValue{true}));
}

TEST(Taxonomy, MajorAndMinorResolution) {
  Taxonomy tax;
  tax.add_major("CPU");
  EXPECT_TRUE(tax.link("CPU_brand", "CPU"));
  EXPECT_TRUE(tax.link("CPU_model", "CPU_brand"));
  EXPECT_TRUE(tax.link("CPU_core_size", "CPU_model"));
  EXPECT_TRUE(tax.is_major("CPU"));
  EXPECT_FALSE(tax.is_major("CPU_model"));
  EXPECT_EQ(tax.major_of("CPU"), "CPU");
  EXPECT_EQ(tax.major_of("CPU_brand"), "CPU");
  EXPECT_EQ(tax.major_of("CPU_core_size"), "CPU");  // transitive
  EXPECT_FALSE(tax.major_of("unknown").has_value());
}

TEST(Taxonomy, CyclesAreRefused) {
  Taxonomy tax;
  tax.add_major("A");
  EXPECT_TRUE(tax.link("B", "A"));
  EXPECT_TRUE(tax.link("C", "B"));
  EXPECT_FALSE(tax.link("B", "C"));  // would create B→C→B
  EXPECT_FALSE(tax.link("X", "X"));  // self-link
  EXPECT_EQ(tax.major_of("C"), "A");
}

TEST(Taxonomy, DuplicateMajorIsIdempotent) {
  Taxonomy tax;
  tax.add_major("GPU");
  tax.add_major("GPU");
  EXPECT_EQ(tax.major_count(), 1u);
}

TEST(Directory, SiteByName) {
  Directory dir;
  dir.site_names = {"Virginia", "Tokyo"};
  EXPECT_EQ(dir.site_by_name("Tokyo"), net::SiteId{1});
  EXPECT_FALSE(dir.site_by_name("Mars").has_value());
}

TEST(TreeTable, EveryEntryIsTheSiteTopic) {
  auto specs = std::make_shared<std::vector<TreeSpec>>();
  specs->push_back(TreeSpec::existence("CPU"));
  specs->push_back(
      TreeSpec::from_predicate({"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  specs->push_back(TreeSpec::from_predicate(
      {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}}));
  const std::vector<std::string> sites{"Virginia", "Tokyo", "Sydney"};
  const TreeTable table{specs, sites};
  ASSERT_EQ(table.specs().size(), 3u);
  for (std::size_t i = 0; i < specs->size(); ++i) {
    EXPECT_EQ(table.spec_index((*specs)[i].canonical), i);
    for (net::SiteId s = 0; s < sites.size(); ++s) {
      EXPECT_EQ(table.topic(i, s), site_topic((*specs)[i].canonical, sites[s]));
    }
  }
  EXPECT_FALSE(table.spec_index("RAM>8").has_value());

  specs->push_back(TreeSpec::existence("CPU"));
  EXPECT_THROW((TreeTable{specs, sites}), util::ContractError);
}

ClusterConfig two_site_config() {
  ClusterConfig config;
  config.topology = net::Topology::uniform(2, 0.5, 40.0);
  config.seed = 5;
  config.node.scribe.aggregation_interval = util::SimTime::millis(200);
  return config;
}

TEST(TreeTable, NodesReadTheClusterTable) {
  RBayCluster cluster{two_site_config()};
  cluster.add_tree_spec(TreeSpec::existence("CPU"));
  cluster.add_tree_spec(
      TreeSpec::from_predicate({"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(3);
  cluster.finalize();
  const auto& names = cluster.directory().site_names;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    auto& node = cluster.node(n);
    EXPECT_EQ(node.tree_table(), &cluster.tree_table());
    for (std::size_t i = 0; i < cluster.tree_specs().size(); ++i) {
      const auto& spec = cluster.tree_specs()[i];
      EXPECT_EQ(node.topic_of(spec), site_topic(spec.canonical, names[node.site()]));
      EXPECT_EQ(cluster.tree_table().topic(i, node.site()), node.topic_of(spec));
    }
    // A canonical no spec names still hashes to its site tree.
    EXPECT_EQ(node.topic_of("RAM>8"), site_topic("RAM>8", names[node.site()]));
  }
}

TEST(TreeTable, MinorAttributeQueryPlansTheExistenceTree) {
  RBayCluster cluster{two_site_config()};
  cluster.add_tree_spec(TreeSpec::existence("CPU"));
  cluster.add_tree_spec(
      TreeSpec::from_predicate({"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  Taxonomy tax;
  tax.add_major("CPU");
  tax.link("CPU_model", "CPU");
  cluster.set_taxonomy(std::move(tax));
  cluster.populate(6);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.node(i).post("CPU", "Intel").ok());
    ASSERT_TRUE(cluster.node(i).post("CPU_model", i % 2 == 0 ? "i7" : "i5").ok());
    ASSERT_TRUE(cluster.node(i).post("GPU", i % 3 == 0).ok());  // 2 per site
  }
  cluster.finalize();
  cluster.run_for(util::SimTime::seconds(2));

  auto count = [&](const std::string& sql) {
    double out = -1.0;
    cluster.node(0).query().execute_sql(sql, [&](const QueryOutcome& o) { out = o.count; });
    cluster.run();
    return out;
  };
  // COUNT reads the smallest planned tree's root aggregate: the minor
  // attribute alone plans has:CPU (6 members per site) ...
  EXPECT_DOUBLE_EQ(count("SELECT COUNT FROM * WHERE CPU_model = 'i7'"), 12.0);
  // ... and next to GPU = true it plans both trees, GPU's being smaller.
  EXPECT_DOUBLE_EQ(count("SELECT COUNT FROM * WHERE CPU_model = 'i7' AND GPU = true"), 4.0);
}

TEST(TreeTable, SubscribedToFollowsJoinsAndLeaves) {
  ClusterConfig config;
  config.node.scribe.aggregation_interval = util::SimTime::millis(100);
  RBayCluster cluster{config};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}}));
  cluster.add_tree_spec(
      TreeSpec::from_predicate({"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(4);
  auto& node = cluster.node(1);
  ASSERT_TRUE(node.post("CPU_utilization", 0.05).ok());
  EXPECT_FALSE(node.subscribed_to(cluster.tree_specs()[0]));  // no table before finalize
  cluster.finalize();
  const auto& idle = cluster.tree_specs()[0];
  const auto& gpu = cluster.tree_specs()[1];
  EXPECT_TRUE(node.subscribed_to(idle));
  EXPECT_FALSE(node.subscribed_to(gpu));

  ASSERT_TRUE(node.post("CPU_utilization", 0.5).ok());
  EXPECT_FALSE(node.subscribed_to(idle));
  ASSERT_TRUE(node.post("GPU", true).ok());
  ASSERT_TRUE(node.post("CPU_utilization", 0.02).ok());
  EXPECT_TRUE(node.subscribed_to(idle));
  EXPECT_TRUE(node.subscribed_to(gpu));
  node.set_hidden("GPU", true);
  EXPECT_FALSE(node.subscribed_to(gpu));
  EXPECT_TRUE(node.subscribed_to(idle));
  node.remove_attribute("CPU_utilization");
  EXPECT_FALSE(node.subscribed_to(idle));
  EXPECT_FALSE(node.subscribed_to(TreeSpec::existence("RAM")));
  cluster.run();
  EXPECT_EQ(node.scribe().subscribed(node.topic_of(idle)), node.subscribed_to(idle));
  EXPECT_EQ(node.scribe().subscribed(node.topic_of(gpu)), node.subscribed_to(gpu));
}

}  // namespace
}  // namespace rbay::core
