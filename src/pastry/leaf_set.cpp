#include "pastry/leaf_set.hpp"

#include <algorithm>

namespace rbay::pastry {

LeafSet::LeafSet(const NodeTable& nodes, NodeIndex owner, int half_size)
    : nodes_(&nodes), owner_(owner), half_(static_cast<std::uint8_t>(half_size)) {
  RBAY_REQUIRE(half_size >= 1 && half_size <= kLeafHalfSize,
               "LeafSet: half_size must be in [1, kLeafHalfSize]");
}

/// Inserts into a side kept sorted by distance from the owner, truncating
/// to half_.  Returns whether the candidate is now a member.
bool LeafSet::insert(Side& side, NodeIndex candidate, bool clockwise) {
  const NodeId& own = owner().id;
  auto dist = [&](NodeIndex i) {
    const NodeId& id = (*nodes_)[i].id;
    return clockwise ? own.cw_distance(id) : id.cw_distance(own);
  };
  const auto d = dist(candidate);
  // A full side keeps only candidates nearer than its farthest member (one
  // at the same distance is that member), so the candidate never lands
  // past the last slot.  Most candidates stop here, at one table read.
  if (side.count == half_ && !(d < dist(side.nodes[side.count - 1]))) return false;
  // Members are strictly sorted by distance, so a duplicate sits before
  // the first member farther than the candidate.
  int pos = 0;
  for (; pos < side.count; ++pos) {
    if (side.nodes[pos] == candidate) return false;
    if (d < dist(side.nodes[pos])) break;
  }
  const int count = std::min(side.count + 1, static_cast<int>(half_));
  for (int k = count - 1; k > pos; --k) side.nodes[k] = side.nodes[k - 1];
  side.nodes[pos] = candidate;
  side.count = static_cast<std::uint8_t>(count);
  return true;
}

void LeafSet::erase(Side& side, const NodeId& id) {
  for (int k = 0; k < side.count; ++k) {
    if ((*nodes_)[side.nodes[k]].id != id) continue;
    std::copy(side.nodes.begin() + k + 1, side.nodes.begin() + side.count,
              side.nodes.begin() + k);
    --side.count;
    return;
  }
}

bool LeafSet::consider(NodeIndex candidate) {
  if (candidate == owner_) return false;
  // A node can qualify on both sides in tiny overlays; try both.
  const bool a = insert(cw_, candidate, /*clockwise=*/true);
  const bool b = insert(ccw_, candidate, /*clockwise=*/false);
  return a || b;
}

void LeafSet::remove(const NodeId& id) {
  erase(cw_, id);
  erase(ccw_, id);
}

bool LeafSet::covers(const NodeId& key) const {
  const NodeId& own = owner().id;
  if (key == own) return true;
  // Incomplete sides mean we know of no farther node in that direction, so
  // the set covers that whole side.
  const auto cw_dist = own.cw_distance(key);
  const auto ccw_dist = key.cw_distance(own);
  // Take the nearer direction to decide which boundary applies.
  if (cw_dist <= ccw_dist) {
    if (cw_.count < half_) return true;
    return cw_dist <= own.cw_distance((*nodes_)[cw_.nodes[cw_.count - 1]].id);
  }
  if (ccw_.count < half_) return true;
  return ccw_dist <= (*nodes_)[ccw_.nodes[ccw_.count - 1]].id.cw_distance(own);
}

NodeRef LeafSet::closest(const NodeId& key) const {
  const NodeRef* best = &owner();
  for (const Side* side : {&cw_, &ccw_}) {
    for (int k = 0; k < side->count; ++k) {
      const NodeRef& r = (*nodes_)[side->nodes[k]];
      if (closer_to(key, r.id, best->id)) best = &r;
    }
  }
  return *best;
}

std::vector<NodeRef> LeafSet::all() const {
  const auto cw = clockwise();
  std::vector<NodeRef> out(cw.begin(), cw.end());
  const auto cw_end = cw_.nodes.begin() + cw_.count;
  for (int k = 0; k < ccw_.count; ++k) {
    if (std::find(cw_.nodes.begin(), cw_end, ccw_.nodes[k]) == cw_end) {
      out.push_back((*nodes_)[ccw_.nodes[k]]);
    }
  }
  return out;
}

bool LeafSet::contains(const NodeId& id) const {
  auto has = [&](const Side& side) {
    for (int k = 0; k < side.count; ++k) {
      if ((*nodes_)[side.nodes[k]].id == id) return true;
    }
    return false;
  };
  return has(cw_) || has(ccw_);
}

}  // namespace rbay::pastry
