#include "model/reference_model.hpp"

#include <gtest/gtest.h>

#include "model/workload.hpp"

namespace rbay::model {
namespace {

// Queries from two origins (the model keys tenancies by id, not origin).
const query::QueryId kAA1{util::U128{0xaa}, 1};
const query::QueryId kAA2{util::U128{0xaa}, 2};
const query::QueryId kBB1{util::U128{0xbb}, 1};
const query::QueryId kBB2{util::U128{0xbb}, 2};

query::Predicate pred(const std::string& attr, query::CompareOp op,
                      store::AttributeValue literal) {
  query::Predicate p;
  p.attribute = attr;
  p.op = op;
  p.literal = std::move(literal);
  return p;
}

/// Two sites, two nodes each; node 0/2 are the gateways.
ReferenceModel two_site_model() {
  ReferenceModel m({"Site0", "Site1"}, workload_tree_specs(), workload_taxonomy());
  for (net::SiteId s = 0; s < 2; ++s) {
    for (int i = 0; i < 2; ++i) m.add_node(s);
  }
  return m;
}

TEST(ReferenceModel, MembershipIsStoreDriven) {
  auto m = two_site_model();
  m.post(0, "GPU", store::AttributeValue{true});
  m.post(1, "GPU", store::AttributeValue{false});
  m.post(2, "GPU", store::AttributeValue{true});
  EXPECT_EQ(m.members("GPU=true", 0), (std::vector<std::size_t>{0}));
  EXPECT_EQ(m.members("GPU=true", 1), (std::vector<std::size_t>{2}));
  EXPECT_EQ(m.tree_size("GPU=true", 0), 1.0);

  m.set_hidden(0, "GPU", true);  // hidden attrs leave the tree
  EXPECT_TRUE(m.members("GPU=true", 0).empty());
  m.set_hidden(0, "GPU", false);
  EXPECT_EQ(m.members("GPU=true", 0), (std::vector<std::size_t>{0}));

  m.crash(0);  // crashed nodes leave the tree
  EXPECT_TRUE(m.members("GPU=true", 0).empty());
  m.recover(0);
  EXPECT_EQ(m.members("GPU=true", 0), (std::vector<std::size_t>{0}));

  m.remove_attribute(0, "GPU");
  EXPECT_TRUE(m.members("GPU=true", 0).empty());
}

TEST(ReferenceModel, HybridNamingResolution) {
  auto m = two_site_model();
  // Direct: the predicate's own canonical is a registered tree.
  EXPECT_EQ(m.resolve_tree(pred("GPU", query::CompareOp::Eq, store::AttributeValue{true})),
            "GPU=true");
  // Major: `brand` is its own major, served by the existence tree.
  EXPECT_EQ(m.resolve_tree(pred("brand", query::CompareOp::Eq, store::AttributeValue{"acme"})),
            "has:brand");
  // Minor: `model` links to `brand` through the taxonomy.
  EXPECT_EQ(m.resolve_tree(pred("model", query::CompareOp::Eq, store::AttributeValue{"m1"})),
            "has:brand");
  // Unknown attribute: no tree backs it.
  EXPECT_FALSE(
      m.resolve_tree(pred("RAM", query::CompareOp::Greater, store::AttributeValue{8.0}))
          .has_value());
}

TEST(ReferenceModel, CountSumsSmallestTreePerSite) {
  auto m = two_site_model();
  // Site0: two GPU members, one CPU member; Site1: one GPU member.
  m.post(0, "GPU", store::AttributeValue{true});
  m.post(1, "GPU", store::AttributeValue{true});
  m.post(1, "CPU", store::AttributeValue{0.1});
  m.post(2, "GPU", store::AttributeValue{true});

  query::Query q;
  q.count_only = true;
  q.predicates.push_back(pred("GPU", query::CompareOp::Eq, store::AttributeValue{true}));
  auto c = m.predict_count(0, q);
  EXPECT_EQ(c.count, 3.0);
  EXPECT_EQ(c.sites_answered, (std::vector<net::SiteId>{0, 1}));
  EXPECT_EQ(c.sites_timed_out, 0);

  // Conjunction reads the smaller tree per site: CPU (1) on Site0, and 0
  // on Site1, whose empty CPU tree means no node there matches both.
  q.predicates.push_back(pred("CPU", query::CompareOp::Less, store::AttributeValue{0.5}));
  EXPECT_EQ(m.predict_count(0, q).count, 1.0);
}

TEST(ReferenceModel, PartitionAndGatewayGateRemoteSites) {
  auto m = two_site_model();
  m.post(0, "GPU", store::AttributeValue{true});
  m.post(2, "GPU", store::AttributeValue{true});
  query::Query q;
  q.count_only = true;
  q.predicates.push_back(pred("GPU", query::CompareOp::Eq, store::AttributeValue{true}));

  m.set_partitioned(0, 1, true);
  auto c = m.predict_count(0, q);
  EXPECT_EQ(c.count, 1.0);  // own site still answers locally
  EXPECT_EQ(c.sites_answered, (std::vector<net::SiteId>{0}));
  EXPECT_EQ(c.sites_timed_out, 1);

  m.heal_all();
  EXPECT_EQ(m.predict_count(0, q).count, 2.0);

  m.crash(2);  // Site1's gateway: the whole site stops answering
  c = m.predict_count(0, q);
  EXPECT_EQ(c.sites_timed_out, 1);
  EXPECT_EQ(c.count, 1.0);
}

TEST(ReferenceModel, SelectEligibilityAndTenancy) {
  auto m = two_site_model();
  for (std::size_t n = 0; n < 4; ++n) m.post(n, "GPU", store::AttributeValue{true});

  query::Query q;
  q.k = 3;
  q.predicates.push_back(pred("GPU", query::CompareOp::Eq, store::AttributeValue{true}));
  auto s = m.predict_select(0, q, util::SimTime::seconds(1));
  EXPECT_TRUE(s.satisfied);
  EXPECT_EQ(s.eligible.size(), 4u);
  // Each site caps at k: min(3,2) + min(3,2) = 4 gatherable.
  EXPECT_EQ(s.gatherable, 4);

  // A live indefinite tenancy removes a node from the pool.
  m.commit(0, kAA1, {1, 2}, util::SimTime::seconds(1), util::SimTime::zero());
  s = m.predict_select(0, q, util::SimTime::seconds(2));
  EXPECT_EQ(s.eligible.size(), 2u);
  EXPECT_FALSE(s.satisfied);  // min(3,1)+min(3,1) = 2 < 3

  // An expired lease is reclaimable on the spot.
  m.release(0, kAA1, {1, 2});
  m.commit(0, kAA2, {1}, util::SimTime::seconds(2), util::SimTime::seconds(1));
  s = m.predict_select(0, q, util::SimTime::seconds(10));
  EXPECT_EQ(s.eligible.size(), 4u);
  EXPECT_TRUE(s.satisfied);
}

TEST(ReferenceModel, LedgerMirrorsReachabilityAndCrashRelease) {
  auto m = two_site_model();
  const auto now = util::SimTime::seconds(1);

  // A commit across a partition silently drops the remote half.
  m.set_partitioned(0, 1, true);
  m.commit(0, kAA1, {1, 3}, now, util::SimTime::zero());
  auto ledger = m.committed_now(now);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.at(1), kAA1);

  // Release is gated the same way; after healing it lands.
  m.release(0, kAA1, {1});
  EXPECT_TRUE(m.committed_now(now).empty());
  m.heal_all();

  // A crash of the ORIGIN releases everything it originated, god-view.
  m.commit(1, kBB1, {0, 3}, now, util::SimTime::zero());
  EXPECT_EQ(m.committed_now(now).size(), 2u);
  m.crash(1);
  EXPECT_TRUE(m.committed_now(now).empty());

  // Expired leases age out of the observable ledger lazily.
  m.recover(1);
  m.commit(1, kBB2, {3}, now, util::SimTime::seconds(2));
  EXPECT_EQ(m.committed_now(util::SimTime::seconds(2)).size(), 1u);
  EXPECT_TRUE(m.committed_now(util::SimTime::seconds(10)).empty());
}

TEST(ReferenceModel, MulticastHidesCurrentMembersOnly) {
  auto m = two_site_model();
  m.post(0, "GPU", store::AttributeValue{true});
  m.post(1, "GPU", store::AttributeValue{false});  // not a member
  const auto& spec = m.specs().front();
  ASSERT_EQ(spec.canonical, "GPU=true");

  m.multicast_set_hidden(0, spec, "GPU", true);
  EXPECT_TRUE(m.members("GPU=true", 0).empty());

  // Node 1 never saw the multicast: flipping its value to true now makes
  // it a (visible) member while node 0 stays hidden.
  m.post(1, "GPU", store::AttributeValue{true});
  EXPECT_EQ(m.members("GPU=true", 0), (std::vector<std::size_t>{1}));
}

TEST(ReferenceModel, FaultActionAdapter) {
  auto m = two_site_model();
  fault::FaultAction crash;
  crash.kind = fault::ActionKind::CrashRandom;
  m.apply_fault(crash, {1, 3});
  EXPECT_TRUE(m.crashed(1));
  EXPECT_TRUE(m.crashed(3));

  fault::FaultAction cut;
  cut.kind = fault::ActionKind::Partition;
  cut.site_a = "Site0";
  cut.site_b = "Site1";
  m.apply_fault(cut, {});
  EXPECT_TRUE(m.partitioned(0, 1));

  fault::FaultAction heal;
  heal.kind = fault::ActionKind::HealAll;
  m.apply_fault(heal, {});
  EXPECT_FALSE(m.partitioned(0, 1));

  fault::FaultAction recover;
  recover.kind = fault::ActionKind::RecoverAll;
  m.apply_fault(recover, {1, 3});
  EXPECT_FALSE(m.crashed(1));
  EXPECT_FALSE(m.crashed(3));
}

}  // namespace
}  // namespace rbay::model
