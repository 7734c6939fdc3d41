#pragma once

// Overlay: owns all simulated Pastry nodes of a federation.
//
// Two ways to form the ring:
//   * protocol join — nodes join one by one through a bootstrap (faithful
//     to Pastry, used by tests and small runs);
//   * build_static() — populates leaf sets and routing tables directly from
//     global knowledge in O(n·log n), which is how 10k-16k node benches
//     become tractable on one core.  Both paths produce state with the same
//     invariants, verified by the property tests.

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "pastry/node.hpp"
#include "sim/engine.hpp"

namespace rbay::pastry {

class Overlay {
 public:
  Overlay(sim::Engine& engine, net::Topology topology);

  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;

  /// Creates a node at `site` with a synthetic unique IP and appends it to
  /// the node table.  Requires that the engine is not running: every shard
  /// reads the node table without a lock.
  PastryNode& create_node(net::SiteId site);

  /// Creates `per_site` nodes in every site of the topology.
  void populate(std::size_t per_site);

  /// Builds all leaf sets and routing tables from global knowledge.
  void build_static();

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] PastryNode& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] const PastryNode& node(std::size_t i) const { return *nodes_.at(i); }
  [[nodiscard]] NodeRef ref(std::size_t i) const { return nodes_.at(i)->self(); }
  /// Every node's NodeRef by node index; routing state points into it.
  [[nodiscard]] const NodeTable& node_table() const { return node_table_; }

  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Node index by NodeId; requires the id to exist.
  [[nodiscard]] std::size_t index_of(const NodeId& id) const;

  /// God-view root: index of the live node numerically closest to `key`
  /// (optionally restricted to one site).  Used by tests as ground truth.
  [[nodiscard]] std::size_t root_of(const NodeId& key) const;
  [[nodiscard]] std::size_t root_of_in_site(const NodeId& key, net::SiteId site) const;

  [[nodiscard]] std::vector<std::size_t> nodes_in_site(net::SiteId site) const;

  /// Marks a node dead: endpoint down and purged from every routing table
  /// (the eager variant of failure handling; Scribe's heartbeats provide
  /// the lazy path).
  void fail_node(std::size_t i);
  [[nodiscard]] bool is_failed(std::size_t i) const { return failed_.at(i); }

  /// Brings a failed node back: endpoint up, stale state purged, ring
  /// neighbors re-learned on both sides (global and site rings).  Routing
  /// table entries repopulate lazily through normal traffic.
  void recover_node(std::size_t i);

  /// Invoked after fail_node() finishes purging the dead node from every
  /// live routing table, with the failed node's index.  The cluster layer
  /// hooks this to release reservations held by the crashed node.
  std::function<void(std::size_t)> on_fail;

 private:
  sim::Engine& engine_;
  net::Network network_;
  NodeTable node_table_;
  std::vector<std::unique_ptr<PastryNode>> nodes_;
  std::vector<bool> failed_;
  std::unordered_map<NodeId, std::size_t, util::U128Hash> by_id_;
};

}  // namespace rbay::pastry
