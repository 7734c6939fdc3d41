#pragma once

// The federation-wide node table: every overlay node's NodeRef, indexed by
// its overlay node index.  Routing tables and leaf sets store 32-bit
// indices into it instead of NodeRefs, which is most of a node's memory in
// 100k-node overlays.
//
// The overlay appends to the table as it creates nodes and is its only
// writer.  Every site shard reads it without a lock, so it must not grow
// while the engine runs (Overlay::create_node enforces that).

#include <cstdint>
#include <limits>
#include <ranges>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "pastry/node_id.hpp"

namespace rbay::pastry {

struct NodeRef {
  NodeId id;
  net::EndpointId endpoint = net::kInvalidEndpoint;
  net::SiteId site = 0;

  friend bool operator==(const NodeRef&, const NodeRef&) = default;
};

/// Index of a node in the node table (its overlay node index).
using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kNoNode = std::numeric_limits<NodeIndex>::max();

class NodeTable {
 public:
  /// Appends `ref` and returns its index.  Its endpoint must be unique.
  NodeIndex add(const NodeRef& ref);

  [[nodiscard]] const NodeRef& operator[](NodeIndex i) const { return refs_[i]; }
  [[nodiscard]] std::size_t size() const { return refs_.size(); }

  /// The index of the node behind `ref`, found by its endpoint; requires
  /// that it was added.
  [[nodiscard]] NodeIndex index_of(const NodeRef& ref) const;

 private:
  std::vector<NodeRef> refs_;
  // EndpointId → index; kNoNode for endpoints that are not overlay nodes.
  std::vector<NodeIndex> by_endpoint_;
};

/// Resolves node-table indices to the NodeRefs they name.
struct ResolveRef {
  const NodeTable* table;
  const NodeRef& operator()(NodeIndex i) const { return (*table)[i]; }
};

/// A read-only, random-access sequence of NodeRefs stored as indices.  It
/// points into its owner's indices: do not keep it across a change to them.
using NodeRefView = std::ranges::transform_view<std::span<const NodeIndex>, ResolveRef>;

}  // namespace rbay::pastry
