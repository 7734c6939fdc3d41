#pragma once

// Pastry leaf set: the L/2 numerically closest nodes on each side of the
// owner on the id ring.  Used for the last routing hop and for repairing
// routing state after failures.
//
// For RBAY's administrative isolation (§III.E) each entry is marked with
// the site it belongs to, and a site-filtered view is available so that
// site-scoped routing never leaves the site.

#include <optional>
#include <vector>

#include "pastry/routing_table.hpp"

namespace rbay::pastry {

/// L/2: entries per side of every node's leaf set (Pastry's L = 16).
inline constexpr int kLeafHalfSize = 8;

class LeafSet {
 public:
  LeafSet(NodeRef owner, int half_size = kLeafHalfSize) : owner_(owner), half_(half_size) {}

  [[nodiscard]] const NodeRef& owner() const { return owner_; }

  /// Inserts `candidate` if it belongs among the closest neighbors on its
  /// side.  Returns true if the set changed.
  bool consider(const NodeRef& candidate);

  void remove(const NodeId& id);

  /// True if `key` falls within the arc covered by the leaf set (between
  /// the farthest counter-clockwise and farthest clockwise members).  An
  /// incomplete side (fewer than half_ entries) counts as covering
  /// everything on that side, which is correct for small overlays.
  [[nodiscard]] bool covers(const NodeId& key) const;

  /// The member (or owner) numerically closest to `key`.
  [[nodiscard]] NodeRef closest(const NodeId& key) const;

  [[nodiscard]] const std::vector<NodeRef>& clockwise() const { return cw_; }
  [[nodiscard]] const std::vector<NodeRef>& counter_clockwise() const { return ccw_; }
  [[nodiscard]] std::vector<NodeRef> all() const;
  [[nodiscard]] bool contains(const NodeId& id) const;
  [[nodiscard]] int half_size() const { return half_; }

 private:
  NodeRef owner_;
  int half_;
  // cw_[0] is the immediate clockwise successor; sorted by clockwise
  // distance from owner.  Symmetrically for ccw_.
  std::vector<NodeRef> cw_;
  std::vector<NodeRef> ccw_;
};

}  // namespace rbay::pastry
