#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "pastry/test_helpers.hpp"
#include "util/sha1.hpp"

namespace rbay::pastry {
namespace {

using testing::ProbeApp;
using testing::ProbeMsg;

/// Builds an overlay through the join PROTOCOL (no static build): the first
/// node bootstraps, every later node joins through a random existing one.
struct ProtocolOverlay {
  sim::Engine engine{123};
  Overlay overlay;
  std::vector<std::unique_ptr<ProbeApp>> apps;

  explicit ProtocolOverlay(std::size_t n, net::Topology topo = net::Topology::single_site())
      : overlay(engine, std::move(topo)) {
    for (std::size_t i = 0; i < n; ++i) {
      const net::SiteId site =
          static_cast<net::SiteId>(i % overlay.network().topology().site_count());
      auto& node = overlay.create_node(site);
      apps.push_back(std::make_unique<ProbeApp>(node));
      if (i == 0) continue;
      const auto bootstrap = engine.rng().uniform(i);
      node.join(overlay.ref(bootstrap));
      engine.run();  // let the join complete before the next node arrives
    }
  }
};

TEST(Join, AllNodesReportJoined) {
  ProtocolOverlay po{20};
  for (std::size_t i = 0; i < po.overlay.size(); ++i) {
    EXPECT_TRUE(po.overlay.node(i).joined()) << "node " << i << " never joined";
  }
}

TEST(Join, JoinCompletesOnce) {
  sim::Engine engine{5};
  obs::Registry reg;
  engine.set_metrics(&reg);
  Overlay overlay{engine, net::Topology::single_site()};
  auto& a = overlay.create_node(0);
  auto& b = overlay.create_node(0);
  ProbeApp app_a{a};
  ProbeApp app_b{b};
  EXPECT_FALSE(b.joined());
  b.join(a.self());
  engine.run();
  // The join reply was consumed exactly once: the protocol completed.
  EXPECT_TRUE(b.joined());
  EXPECT_EQ(reg.fed().counter<"pastry.joins">().value(), 1u);
}

TEST(Join, ProtocolBuiltOverlayRoutesCorrectly) {
  ProtocolOverlay po{30};
  for (int q = 0; q < 30; ++q) {
    const NodeId key = util::Sha1::hash128("jq-" + std::to_string(q));
    auto msg = std::make_unique<ProbeMsg>();
    msg->tag = q;
    po.overlay.node(static_cast<std::size_t>(q) % po.overlay.size())
        .route(key, std::move(msg), ProbeApp::kName);
  }
  po.engine.run();
  int delivered = 0;
  for (std::size_t i = 0; i < po.overlay.size(); ++i) {
    for (const auto& d : po.apps[i]->deliveries) {
      ++delivered;
      EXPECT_EQ(po.overlay.root_of(d.key), i)
          << "protocol-built overlay misroutes query " << d.tag;
    }
  }
  EXPECT_EQ(delivered, 30);
}

TEST(Join, LeafSetsMatchRingNeighbors) {
  ProtocolOverlay po{25};
  auto& overlay = po.overlay;
  // Sort ids to compute true ring successors.
  std::vector<std::size_t> order(overlay.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return overlay.ref(a).id < overlay.ref(b).id;
  });
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const auto idx = order[pos];
    const auto succ = order[(pos + 1) % order.size()];
    const auto& leaves = overlay.node(idx).leaf_set();
    EXPECT_TRUE(leaves.contains(overlay.ref(succ).id))
        << "node " << idx << " is missing its ring successor";
  }
}

TEST(Join, JoinAcrossSitesPopulatesSiteStructures) {
  ProtocolOverlay po{24, net::Topology::ec2_eight_sites()};
  // Each site has 3 nodes; every node's site leaf set must only contain
  // same-site nodes.
  for (std::size_t i = 0; i < po.overlay.size(); ++i) {
    const auto& node = po.overlay.node(i);
    for (const auto& r : node.site_leaf_set().all()) {
      EXPECT_EQ(r.site, node.self().site);
    }
  }
}

TEST(Join, ConcurrentJoinsEventuallyRoute) {
  // All nodes join through node 0 at the same time; after the dust settles
  // and a round of gossip (StateAnnounce), routing must still converge.
  sim::Engine engine{9};
  Overlay overlay{engine, net::Topology::single_site()};
  std::vector<std::unique_ptr<ProbeApp>> apps;
  auto& first = overlay.create_node(0);
  apps.push_back(std::make_unique<ProbeApp>(first));
  for (std::size_t i = 1; i < 12; ++i) {
    auto& node = overlay.create_node(0);
    apps.push_back(std::make_unique<ProbeApp>(node));
    node.join(overlay.ref(0));
  }
  engine.run();
  // Let every node learn all others through a second announce wave:
  // concurrent joins may leave gaps, so nodes re-announce to their leaves.
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    for (std::size_t j = 0; j < overlay.size(); ++j) {
      if (i != j) overlay.node(i).learn(overlay.ref(j));
    }
  }
  const NodeId key = util::Sha1::hash128("concurrent");
  auto msg = std::make_unique<ProbeMsg>();
  msg->tag = 1;
  overlay.node(5).route(key, std::move(msg), ProbeApp::kName);
  engine.run();
  const auto root = overlay.root_of(key);
  EXPECT_EQ(apps[root]->deliveries.size(), 1u);
}

}  // namespace
}  // namespace rbay::pastry
