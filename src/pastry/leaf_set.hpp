#pragma once

// Pastry leaf set: the L/2 numerically closest nodes on each side of the
// owner on the id ring.  Used for the last routing hop and for repairing
// routing state after failures.
//
// For RBAY's administrative isolation (§III.E) each entry is marked with
// the site it belongs to, and a site-filtered view is available so that
// site-scoped routing never leaves the site.
//
// Each side is an inline array of node-table indices plus a count, so a
// leaf set owns no heap memory.

#include <array>
#include <cstdint>
#include <vector>

#include "pastry/node_table.hpp"

namespace rbay::pastry {

/// L/2: entries per side of every node's leaf set (Pastry's L = 16).
inline constexpr int kLeafHalfSize = 8;

class LeafSet {
 public:
  /// Requires 1 <= half_size <= kLeafHalfSize.
  LeafSet(const NodeTable& nodes, NodeIndex owner, int half_size = kLeafHalfSize);

  [[nodiscard]] const NodeRef& owner() const { return (*nodes_)[owner_]; }

  /// Inserts `candidate` if it belongs among the closest neighbors on its
  /// side.  Returns true if the set changed.
  bool consider(NodeIndex candidate);

  void remove(const NodeId& id);

  /// True if `key` falls within the arc covered by the leaf set (between
  /// the farthest counter-clockwise and farthest clockwise members).  An
  /// incomplete side (fewer than half_ entries) counts as covering
  /// everything on that side, which is correct for small overlays.
  [[nodiscard]] bool covers(const NodeId& key) const;

  /// The member (or owner) numerically closest to `key`.
  [[nodiscard]] NodeRef closest(const NodeId& key) const;

  /// Members by clockwise distance from the owner, nearest first;
  /// symmetrically for counter_clockwise().
  [[nodiscard]] NodeRefView clockwise() const { return cw_.view(*nodes_); }
  [[nodiscard]] NodeRefView counter_clockwise() const { return ccw_.view(*nodes_); }
  /// The clockwise side, then counter-clockwise members not already listed.
  [[nodiscard]] std::vector<NodeRef> all() const;
  [[nodiscard]] bool contains(const NodeId& id) const;
  [[nodiscard]] int half_size() const { return half_; }

 private:
  struct Side {
    std::array<NodeIndex, kLeafHalfSize> nodes{};
    std::uint8_t count = 0;

    [[nodiscard]] NodeRefView view(const NodeTable& table) const {
      return NodeRefView{std::span<const NodeIndex>(nodes.data(), count), ResolveRef{&table}};
    }
  };

  bool insert(Side& side, NodeIndex candidate, bool clockwise);
  void erase(Side& side, const NodeId& id);

  const NodeTable* nodes_;
  NodeIndex owner_;
  std::uint8_t half_;
  Side cw_;
  Side ccw_;
};

}  // namespace rbay::pastry
