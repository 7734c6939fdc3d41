#include <gtest/gtest.h>

#include "pastry/leaf_set.hpp"
#include "pastry/node_id.hpp"
#include "pastry/routing_table.hpp"
#include "util/rng.hpp"

namespace rbay::pastry {
namespace {

/// Structure tests' node table: each added id gets the next endpoint.
struct Nodes {
  NodeTable table;

  NodeIndex add(const std::string& hex) {
    const auto ep = static_cast<net::EndpointId>(table.size());
    return table.add(NodeRef{util::U128::from_hex(hex), ep, 0});
  }
  [[nodiscard]] const NodeId& id(NodeIndex i) const { return table[i].id; }
};

// --- NodeId helpers ----------------------------------------------------------

TEST(NodeIdHelpers, TreeIdIsDeterministicAndCreatorScoped) {
  EXPECT_EQ(tree_id("GPU", "grace"), tree_id("GPU", "grace"));
  EXPECT_NE(tree_id("GPU", "grace"), tree_id("GPU", "james"));
  EXPECT_NE(tree_id("GPU", "grace"), tree_id("CPU", "grace"));
}

TEST(NodeIdHelpers, CloserToBreaksTiesTowardSmallerId) {
  const NodeId key{100};
  // Equidistant candidates at 90 and 110.
  EXPECT_TRUE(closer_to(key, NodeId{90}, NodeId{110}));
  EXPECT_FALSE(closer_to(key, NodeId{110}, NodeId{90}));
  EXPECT_TRUE(closer_to(key, NodeId{99}, NodeId{90}));
}

// --- RoutingTable ------------------------------------------------------------

TEST(RoutingTable, PlacesEntriesByPrefixRowAndDigitColumn) {
  Nodes nodes;
  const auto owner = nodes.add("a0000000000000000000000000000000");
  RoutingTable table{nodes.table, owner};
  // Shares 1 digit ('a'), next digit 'b' → row 1, column 0xb.
  const auto other = nodes.add("ab000000000000000000000000000000");
  EXPECT_TRUE(table.consider(other, 100));
  const auto entry = table.entry(1, 0xb);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->id, nodes.id(other));
  // No prefix shared → row 0, column 0x3.
  const auto far = nodes.add("30000000000000000000000000000000");
  EXPECT_TRUE(table.consider(far, 100));
  EXPECT_TRUE(table.entry(0, 0x3).has_value());
}

TEST(RoutingTable, ProximityWinsOnSlotConflict) {
  Nodes nodes;
  const auto owner = nodes.add("a0000000000000000000000000000000");
  RoutingTable table{nodes.table, owner};
  const auto slow = nodes.add("b0000000000000000000000000000000");
  const auto fast = nodes.add("b1000000000000000000000000000000");
  EXPECT_TRUE(table.consider(slow, 1000));
  EXPECT_FALSE(table.consider(fast, 2000));  // slower? no: 2000 > 1000, rejected
  EXPECT_EQ(table.entry(0, 0xb)->id, nodes.id(slow));
  EXPECT_TRUE(table.consider(fast, 10));  // faster candidate replaces
  EXPECT_EQ(table.entry(0, 0xb)->id, nodes.id(fast));
}

TEST(RoutingTable, RejectsSelf) {
  Nodes nodes;
  const auto owner = nodes.add("a0000000000000000000000000000000");
  RoutingTable table{nodes.table, owner};
  EXPECT_FALSE(table.consider(owner, 0));
  EXPECT_EQ(table.size(), 0u);
}

TEST(RoutingTable, LookupFollowsKeyDigit) {
  Nodes nodes;
  const auto owner = nodes.add("a0000000000000000000000000000000");
  RoutingTable table{nodes.table, owner};
  const auto other = nodes.add("ab000000000000000000000000000000");
  table.consider(other, 1);
  // Key sharing 1 digit with owner, next digit b → finds `other`.
  const auto key = util::U128::from_hex("abcdef00000000000000000000000000");
  const auto hop = table.lookup(key);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->id, nodes.id(other));
  // Key with next digit c → no entry.
  EXPECT_FALSE(table.lookup(util::U128::from_hex("ac000000000000000000000000000000")).has_value());
}

TEST(RoutingTable, RemovePurgesAllSlots) {
  Nodes nodes;
  const auto owner = nodes.add("a0000000000000000000000000000000");
  RoutingTable table{nodes.table, owner};
  const auto other = nodes.add("ab000000000000000000000000000000");
  table.consider(other, 1);
  EXPECT_EQ(table.size(), 1u);
  table.remove(nodes.id(other));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.entries().empty());
}

TEST(RoutingTable, RowEntriesFiltersByRow) {
  Nodes nodes;
  const auto owner = nodes.add("a0000000000000000000000000000000");
  RoutingTable table{nodes.table, owner};
  table.consider(nodes.add("b0000000000000000000000000000000"), 1);  // row 0
  table.consider(nodes.add("ab000000000000000000000000000000"), 1);  // row 1
  EXPECT_EQ(table.row_entries(0).size(), 1u);
  EXPECT_EQ(table.row_entries(1).size(), 1u);
  EXPECT_EQ(table.row_entries(2).size(), 0u);
}

// --- LeafSet -------------------------------------------------------------------

TEST(LeafSet, KeepsClosestNeighborsOnEachSide) {
  Nodes nodes;
  const auto owner = nodes.add("80000000000000000000000000000000");
  LeafSet leaves{nodes.table, owner, 2};
  // Clockwise (greater) neighbors.
  leaves.consider(nodes.add("81000000000000000000000000000000"));
  leaves.consider(nodes.add("82000000000000000000000000000000"));
  leaves.consider(nodes.add("83000000000000000000000000000000"));
  EXPECT_EQ(leaves.clockwise().size(), 2u);
  EXPECT_EQ(leaves.clockwise()[0].id, util::U128::from_hex("81000000000000000000000000000000"));
  EXPECT_EQ(leaves.clockwise()[1].id, util::U128::from_hex("82000000000000000000000000000000"));
}

TEST(LeafSet, CoversKeyWithinArc) {
  Nodes nodes;
  const auto owner = nodes.add("80000000000000000000000000000000");
  LeafSet leaves{nodes.table, owner, 2};
  leaves.consider(nodes.add("81000000000000000000000000000000"));
  leaves.consider(nodes.add("82000000000000000000000000000000"));
  leaves.consider(nodes.add("7e000000000000000000000000000000"));
  leaves.consider(nodes.add("7f000000000000000000000000000000"));
  EXPECT_TRUE(leaves.covers(util::U128::from_hex("81500000000000000000000000000000")));
  EXPECT_TRUE(leaves.covers(util::U128::from_hex("7e500000000000000000000000000000")));
  EXPECT_FALSE(leaves.covers(util::U128::from_hex("90000000000000000000000000000000")));
  EXPECT_FALSE(leaves.covers(util::U128::from_hex("10000000000000000000000000000000")));
  EXPECT_TRUE(leaves.covers(nodes.id(owner)));
}

TEST(LeafSet, IncompleteSideCoversEverything) {
  Nodes nodes;
  const auto owner = nodes.add("80000000000000000000000000000000");
  LeafSet leaves{nodes.table, owner, 4};
  leaves.consider(nodes.add("81000000000000000000000000000000"));
  // Only one cw member (< half=4): cw side treated as unbounded.
  EXPECT_TRUE(leaves.covers(util::U128::from_hex("f0000000000000000000000000000000")));
}

TEST(LeafSet, ClosestPicksNumericallyNearest) {
  Nodes nodes;
  const auto owner = nodes.add("80000000000000000000000000000000");
  LeafSet leaves{nodes.table, owner, 2};
  const auto n81 = nodes.add("81000000000000000000000000000000");
  const auto n7f = nodes.add("7f000000000000000000000000000000");
  leaves.consider(n81);
  leaves.consider(n7f);
  EXPECT_EQ(leaves.closest(util::U128::from_hex("81100000000000000000000000000000")).id,
            nodes.id(n81));
  EXPECT_EQ(leaves.closest(util::U128::from_hex("7f100000000000000000000000000000")).id,
            nodes.id(n7f));
  EXPECT_EQ(leaves.closest(nodes.id(owner)).id, nodes.id(owner));
}

TEST(LeafSet, RemoveAndContains) {
  Nodes nodes;
  const auto owner = nodes.add("80000000000000000000000000000000");
  LeafSet leaves{nodes.table, owner, 2};
  const auto n = nodes.add("81000000000000000000000000000000");
  leaves.consider(n);
  EXPECT_TRUE(leaves.contains(nodes.id(n)));
  leaves.remove(nodes.id(n));
  EXPECT_FALSE(leaves.contains(nodes.id(n)));
  EXPECT_TRUE(leaves.all().empty());
}

TEST(LeafSet, DuplicateConsiderIsIdempotent) {
  Nodes nodes;
  const auto owner = nodes.add("80000000000000000000000000000000");
  LeafSet leaves{nodes.table, owner, 4};
  const auto n = nodes.add("81000000000000000000000000000000");
  leaves.consider(n);
  leaves.consider(n);
  EXPECT_EQ(leaves.clockwise().size(), 1u);
}

TEST(LeafSet, AllDeduplicatesTinyOverlays) {
  // With 3 nodes, the same neighbor appears on both sides.
  Nodes nodes;
  const auto owner = nodes.add("80000000000000000000000000000000");
  LeafSet leaves{nodes.table, owner, 4};
  const auto a = nodes.add("c0000000000000000000000000000000");
  const auto b = nodes.add("40000000000000000000000000000000");
  leaves.consider(a);
  leaves.consider(b);
  EXPECT_EQ(leaves.all().size(), 2u);
}

}  // namespace
}  // namespace rbay::pastry
