// Pastry routing state over the federation-wide node table: a pinned
// fingerprint of routing decisions on a static overlay, leaf sets at full
// capacity, fail/recover consistency, and the rule that the node table
// and the network's endpoints never grow while the engine runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "fault/invariants.hpp"
#include "pastry/overlay.hpp"
#include "util/rng.hpp"

namespace rbay::pastry {
namespace {

/// FNV-1a over 64-bit words.
struct Fingerprint {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const NodeRef& r) {
    add(r.id.hi());
    add(r.id.lo());
    add(r.endpoint);
    add(r.site);
  }
  void add(const std::optional<NodeRef>& r) {
    if (r) {
      add(*r);
    } else {
      add(~std::uint64_t{0});
    }
  }
  template <class Refs>
  void add_all(const Refs& refs) {
    std::uint64_t n = 0;
    for (const NodeRef& r : refs) {
      add(r);
      ++n;
    }
    add(n);
  }
};

// Every routing decision, join-reply row and leaf-set order on a static
// 4-site x 1,000-node overlay, folded into one value.  Any change to how
// routing state is stored must leave it as it is.
TEST(PastryState, RoutingFingerprintIsPinned) {
  sim::Engine engine{1, sim::EngineConfig::from_env()};
  Overlay overlay{engine, net::Topology::uniform(4, 0.5, 40.0)};
  overlay.populate(1000);
  overlay.build_static();

  Fingerprint fp;
  util::Rng rng{2026};
  for (int k = 0; k < 20'000; ++k) {
    const NodeId key{rng.next_u64(), rng.next_u64()};
    const auto& from = overlay.node(rng.uniform(overlay.size()));
    fp.add(from.next_hop(key, Scope::Global));
    fp.add(from.next_hop(key, Scope::Site));
  }
  for (int n = 0; n < 100; ++n) {
    const auto& node = overlay.node(rng.uniform(overlay.size()));
    for (int row = 0; row < kDigits; ++row) {
      fp.add_all(node.routing_table().row_entries(row));
      fp.add_all(node.site_routing_table().row_entries(row));
    }
    fp.add_all(node.leaf_set().all());
    fp.add_all(node.site_leaf_set().all());
  }
  EXPECT_EQ(fp.h, 10346885951570363339ULL);
}

// A leaf set at full capacity keeps exactly the kLeafHalfSize nearest
// members per side, nearest first, whatever order they arrive in.
TEST(PastryState, FullLeafSetKeepsNearestInOrder) {
  NodeTable nodes;
  auto add = [&](std::uint64_t hi) {
    const auto ep = static_cast<net::EndpointId>(nodes.size());
    return nodes.add(NodeRef{NodeId{hi, 0}, ep, 0});
  };
  const std::uint64_t base = 0x8000'0000'0000'0000ULL;
  const NodeIndex owner = add(base);
  LeafSet leaves{nodes, owner};
  ASSERT_EQ(leaves.half_size(), kLeafHalfSize);

  // Clockwise members at base + d and counter-clockwise ones at base - d,
  // for d = 1..12, fed farthest-first and then interleaved.
  constexpr std::uint64_t kSpan = 12;
  std::vector<NodeIndex> cw(kSpan + 1);
  std::vector<NodeIndex> ccw(kSpan + 1);
  for (std::uint64_t d = kSpan; d >= 1; --d) cw[d] = add(base + d);
  for (std::uint64_t d = 1; d <= kSpan; ++d) ccw[d] = add(base - d);
  for (std::uint64_t d = kSpan; d >= 1; --d) leaves.consider(cw[d]);
  for (const std::uint64_t d : {5, 12, 1, 9, 3, 7, 11, 2, 8, 4, 10, 6}) leaves.consider(ccw[d]);

  auto expect_side = [&](const NodeRefView& side, const std::vector<NodeIndex>& want) {
    ASSERT_EQ(side.size(), static_cast<std::size_t>(kLeafHalfSize));
    for (std::size_t k = 0; k < side.size(); ++k) {
      EXPECT_EQ(side[k], nodes[want[k + 1]]) << "position " << k;
    }
  };
  expect_side(leaves.clockwise(), cw);
  expect_side(leaves.counter_clockwise(), ccw);

  // Farther than every member: rejected, nothing moves.
  EXPECT_FALSE(leaves.consider(cw[kSpan]));
  EXPECT_FALSE(leaves.consider(cw[3]));  // already a member
  expect_side(leaves.clockwise(), cw);

  // Removing the nearest member opens the side; the ninth-nearest fills
  // the far end, and a removed nearer member comes back in front.
  leaves.remove(nodes[cw[1]].id);
  EXPECT_EQ(leaves.clockwise().size(), static_cast<std::size_t>(kLeafHalfSize - 1));
  EXPECT_TRUE(leaves.consider(cw[kLeafHalfSize + 1]));
  EXPECT_EQ(leaves.clockwise().back(), nodes[cw[kLeafHalfSize + 1]]);
  EXPECT_TRUE(leaves.consider(cw[1]));
  expect_side(leaves.clockwise(), cw);
  EXPECT_FALSE(leaves.contains(nodes[cw[kLeafHalfSize + 1]].id)) << "truncated off the far end";

  // all(): the clockwise side, then the counter-clockwise one.
  const auto all = leaves.all();
  ASSERT_EQ(all.size(), 2u * kLeafHalfSize);
  for (int k = 0; k < kLeafHalfSize; ++k) {
    EXPECT_EQ(all[static_cast<std::size_t>(k)], nodes[cw[static_cast<std::size_t>(k) + 1]]);
    EXPECT_EQ(all[static_cast<std::size_t>(kLeafHalfSize + k)],
              nodes[ccw[static_cast<std::size_t>(k) + 1]]);
  }
}

TEST(PastryState, LeafSetRejectsHalfSizeBeyondCapacity) {
  NodeTable nodes;
  const NodeIndex owner = nodes.add(NodeRef{NodeId{1}, 0, 0});
  EXPECT_THROW(LeafSet(nodes, owner, kLeafHalfSize + 1), util::ContractError);
  EXPECT_THROW(LeafSet(nodes, owner, 0), util::ContractError);
  EXPECT_NO_THROW(LeafSet(nodes, owner, kLeafHalfSize));
}

TEST(PastryState, FailThenRecoverLeavesTablesConsistent) {
  sim::Engine engine{3, sim::EngineConfig::from_env()};
  Overlay overlay{engine, net::Topology::uniform(2, 0.5, 40.0)};
  overlay.populate(40);
  overlay.build_static();
  ASSERT_TRUE(fault::check_pastry(overlay).ok());

  const std::size_t victim = 17;
  const NodeId dead = overlay.ref(victim).id;
  overlay.fail_node(victim);
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    if (i == victim) continue;
    const auto& node = overlay.node(i);
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_FALSE(node.leaf_set().contains(dead));
    EXPECT_FALSE(node.site_leaf_set().contains(dead));
    for (const auto* table : {&node.routing_table(), &node.site_routing_table()}) {
      for (const auto& r : table->entries()) EXPECT_NE(r.id, dead);
    }
  }
  const auto failed = fault::check_pastry(overlay);
  EXPECT_TRUE(failed.ok()) << failed.to_string();

  overlay.recover_node(victim);
  const auto recovered = fault::check_pastry(overlay);
  EXPECT_TRUE(recovered.ok()) << recovered.to_string();
  // Its ring neighbors know it again, and it routes its own id to itself.
  const auto& back = overlay.node(victim);
  ASSERT_FALSE(back.leaf_set().clockwise().empty());
  const auto succ = overlay.index_of(back.leaf_set().clockwise().front().id);
  EXPECT_TRUE(overlay.node(succ).leaf_set().contains(dead));
  EXPECT_FALSE(back.next_hop(dead, Scope::Global).has_value());
  EXPECT_FALSE(back.next_hop(dead, Scope::Site).has_value());
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    if (i == victim) continue;
    EXPECT_TRUE(overlay.node(i).next_hop(dead, Scope::Global).has_value()) << "node " << i;
  }
}

// The node table and the network's endpoints are read by every shard
// without a lock: growing either from inside an event must fail loudly.
TEST(PastryState, NodeTableAndEndpointsAreReadOnlyDuringRuns) {
  sim::Engine engine{5, sim::EngineConfig::from_env()};
  Overlay overlay{engine, net::Topology::uniform(2, 0.5, 40.0)};
  overlay.populate(2);
  overlay.build_static();

  int attempts = 0;
  auto try_to_grow = [&] {
    EXPECT_THROW(overlay.create_node(0), util::ContractError);
    EXPECT_THROW(overlay.network().add_endpoint(0, [](net::Envelope) {}), util::ContractError);
    ++attempts;
  };
  engine.schedule(util::SimTime::millis(1), try_to_grow);  // control shard
  engine.schedule_on(engine.shard_for_site(1), util::SimTime::millis(2), try_to_grow);
  engine.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(overlay.size(), 4u);
  EXPECT_EQ(overlay.node_table().size(), 4u);
  EXPECT_EQ(overlay.network().endpoint_count(), 4u);

  // Between runs the overlay may grow again.
  overlay.create_node(1);
  EXPECT_EQ(overlay.node_table().size(), 5u);
  EXPECT_EQ(overlay.node_table()[4], overlay.ref(4));
}

}  // namespace
}  // namespace rbay::pastry
