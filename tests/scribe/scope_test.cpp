#include <gtest/gtest.h>

#include "scribe/scribe_helpers.hpp"

namespace rbay::scribe {
namespace {

using testing::CollectPayload;
using testing::ScribeOverlay;

/// Per-site topics: every Scribe tree is site-scoped, the administrative
/// isolation the RBAY core relies on for its per-site attribute trees
/// (§III.E).
struct SiteScopedFixture {
  ScribeOverlay so{6, net::Topology::ec2_eight_sites()};

  pastry::NodeId topic_for_site(net::SiteId s) {
    return pastry::tree_id("GPU@site" + std::to_string(s), "rbay");
  }

  void subscribe_site(net::SiteId s) {
    const auto topic = topic_for_site(s);
    for (const auto idx : so.overlay.nodes_in_site(s)) {
      so.scribes[idx]->subscribe(topic, so.members[idx].get());
    }
    so.engine.run();
  }
};

TEST(SiteScope, TreeStaysWithinTheSite) {
  SiteScopedFixture f;
  for (net::SiteId s = 0; s < 8; ++s) f.subscribe_site(s);

  // Every tree link (parent and children) must connect same-site nodes.
  for (net::SiteId s = 0; s < 8; ++s) {
    const auto topic = f.topic_for_site(s);
    for (const auto idx : f.so.overlay.nodes_in_site(s)) {
      if (auto parent = f.so.scribes[idx]->parent_of(topic)) {
        EXPECT_EQ(parent->site, s) << "parent link crosses the site boundary";
      }
      for (const auto& child : f.so.scribes[idx]->children_of(topic)) {
        EXPECT_EQ(child.site, s) << "child link crosses the site boundary";
      }
    }
  }
}

TEST(SiteScope, RootIsTheSiteLocalVirtualNode) {
  SiteScopedFixture f;
  f.subscribe_site(3);
  const auto topic = f.topic_for_site(3);
  const auto expected_root = f.so.overlay.root_of_in_site(topic, 3);
  EXPECT_TRUE(f.so.scribes[expected_root]->is_root_of(topic));
}

TEST(SiteScope, MulticastStaysInSite) {
  SiteScopedFixture f;
  f.subscribe_site(2);
  f.subscribe_site(5);
  const auto origin = f.so.overlay.nodes_in_site(2)[1];
  f.so.scribes[origin]->multicast(f.topic_for_site(2), "update");
  f.so.engine.run();
  for (std::size_t i = 0; i < f.so.overlay.size(); ++i) {
    const auto site = f.so.overlay.node(i).self().site;
    if (site == 2) {
      EXPECT_EQ(f.so.members[i]->multicasts.size(), 1u) << "site-2 member " << i;
    } else {
      EXPECT_TRUE(f.so.members[i]->multicasts.empty())
          << "update leaked to site " << site;
    }
  }
}

TEST(SiteScope, AnycastServedBySiteMembers) {
  SiteScopedFixture f;
  for (net::SiteId s = 0; s < 8; ++s) f.subscribe_site(s);
  const auto origin = f.so.overlay.nodes_in_site(4)[0];
  auto payload = std::make_unique<CollectPayload>();
  payload->want = 4;
  bool satisfied = false;
  std::vector<pastry::NodeId> collected;
  f.so.scribes[origin]->anycast(
      f.topic_for_site(4), std::move(payload),
      [&](bool ok, int, AnycastPayload* p) {
        satisfied = ok;
        collected = dynamic_cast<CollectPayload&>(*p).collected;
      });
  f.so.engine.run();
  ASSERT_TRUE(satisfied);
  EXPECT_EQ(collected.size(), 4u);
  for (const auto& id : collected) {
    EXPECT_EQ(f.so.overlay.node(f.so.overlay.index_of(id)).self().site, 4u);
  }
}

TEST(SiteScope, SameTopicNameDifferentSitesAreIndependent) {
  SiteScopedFixture f;
  f.subscribe_site(0);
  f.subscribe_site(7);
  // Same canonical name, different site suffix → different TreeIds,
  // independent membership and independent sizes.
  EXPECT_NE(f.topic_for_site(0), f.topic_for_site(7));
  double size0 = -1;
  f.so.scribes[f.so.overlay.nodes_in_site(0)[0]]->probe_size(
      f.topic_for_site(0), [&](const Scribe::SizeInfo* i) { if (i != nullptr) size0 = i->value; });
  f.so.engine.run();
  // No aggregation timer in this fixture: root sees only its own subtree
  // counts that have reported; with no agg rounds it sees members=own.
  EXPECT_GE(size0, 0.0);
}

TEST(SiteScope, PartitionedSiteKeepsServingLocally) {
  SiteScopedFixture f;
  f.subscribe_site(6);
  // Cut site 6 off from everyone else; site-scoped operations are local
  // and must be unaffected (the "efficiency" half of §III.E).
  for (net::SiteId other = 0; other < 8; ++other) {
    if (other != 6) f.so.overlay.network().set_partitioned(6, other, true);
  }
  const auto origin = f.so.overlay.nodes_in_site(6)[2];
  auto payload = std::make_unique<CollectPayload>();
  payload->want = 3;
  bool satisfied = false;
  f.so.scribes[origin]->anycast(
      f.topic_for_site(6), std::move(payload),
      [&](bool ok, int, AnycastPayload*) { satisfied = ok; });
  f.so.engine.run();
  EXPECT_TRUE(satisfied);
}

}  // namespace
}  // namespace rbay::scribe
