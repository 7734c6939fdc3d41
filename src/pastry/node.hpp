#pragma once

// A single Pastry node: routing state + message dispatch.
//
// The node implements the Pastry common API (route / deliver / forward) for
// registered applications, the join protocol, and RBAY's site-scoped
// routing mode for administrative isolation: a parallel leaf set and
// routing table restricted to same-site nodes, so Site-scoped messages
// converge on a "virtual root" inside the site (§III.E).

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "pastry/leaf_set.hpp"
#include "pastry/messages.hpp"
#include "pastry/routing_table.hpp"

namespace rbay::pastry {

class PastryNode;

/// Application callback interface (the Pastry "common API").
class PastryApp {
 public:
  virtual ~PastryApp() = default;

  /// Message arrived at the key's root (within the routing scope).
  virtual void deliver(const NodeId& key, AppMessage& msg, int hops) = 0;

  /// Message passing through on its way to `next_hop`.  Return false to
  /// consume the message here (Scribe uses this to absorb JOINs).
  virtual bool forward(const NodeId& key, AppMessage& msg, const NodeRef& next_hop) {
    (void)key;
    (void)msg;
    (void)next_hop;
    return true;
  }

  /// Point-to-point message from a node that knows us (tree links).
  virtual void receive(const NodeRef& from, AppMessage& msg) {
    (void)from;
    (void)msg;
  }

  /// A leaf-set neighbor was forgotten (crash detected / purged).  Key
  /// ownership may just have transferred to this node — Scribe uses this
  /// to promote replicated tree-root state without waiting for heartbeat
  /// repair.  Fires only for leaf-set members, not routing-table entries.
  virtual void neighbor_failed(const NodeId& id) { (void)id; }
};

class PastryNode {
 public:
  /// Creates the node and registers its network endpoint.  NodeId is
  /// SHA-1(ip) as in the paper.  `index` is the slot the node will take in
  /// `nodes`, the overlay's node table; routing state stores indices into
  /// it.
  PastryNode(net::Network& network, const NodeTable& nodes, NodeIndex index, net::SiteId site,
             std::string_view ip);

  PastryNode(const PastryNode&) = delete;
  PastryNode& operator=(const PastryNode&) = delete;

  [[nodiscard]] const NodeRef& self() const { return self_; }
  [[nodiscard]] net::Network& network() { return network_; }

  /// Registers an application under `name` and returns the name's
  /// interned id, which the app then sends under.  Registering a name again
  /// replaces its app.  The pointer must outlive the node.
  AppId register_app(const std::string& name, PastryApp* app);

  /// Routes `msg` toward the root of `key` within `scope`.
  void route(const NodeId& key, std::unique_ptr<AppMessage> msg, AppId app,
             Scope scope = Scope::Global);
  /// Same, naming the app by string (interned on every call).  Only
  /// perfbench's route_100k still sends this way.
  void route(const NodeId& key, std::unique_ptr<AppMessage> msg, const std::string& name,
             Scope scope = Scope::Global) {
    route(key, std::move(msg), intern_app(name), scope);
  }

  /// Sends directly to a known node, bypassing key routing.
  void send_direct(const NodeRef& target, std::unique_ptr<AppMessage> msg, AppId app);

  /// Starts the join protocol via an existing overlay member.
  void join(const NodeRef& bootstrap);

  /// Incorporates knowledge of another node into routing state (used by the
  /// join protocol and by the overlay's static builder).
  void learn(const NodeRef& other);

  /// Drops a failed node from all routing state.
  void forget(const NodeId& id);

  /// Computes the next hop for `key`, or nullopt if this node is the root
  /// within `scope`.  Exposed for tests and for Scribe's DFS.
  [[nodiscard]] std::optional<NodeRef> next_hop(const NodeId& key, Scope scope) const;

  [[nodiscard]] const LeafSet& leaf_set() const { return leaves_; }
  [[nodiscard]] const RoutingTable& routing_table() const { return table_; }
  [[nodiscard]] const LeafSet& site_leaf_set() const { return site_leaves_; }
  [[nodiscard]] const RoutingTable& site_routing_table() const { return site_table_; }

  /// True once the join protocol has completed (or learn() was called).
  [[nodiscard]] bool joined() const { return joined_; }

  /// Number of messages this node forwarded on behalf of others (Fig. 8b's
  /// load-balance metric).
  [[nodiscard]] std::uint64_t forward_count() const { return forward_count_; }
  void reset_forward_count() { forward_count_ = 0; }

 private:
  void on_envelope(net::Envelope env);
  void handle_route(std::unique_ptr<RouteEnvelope> env);
  void handle_join_request(JoinRequest& req);
  void handle_join_reply(const JoinReply& reply);
  void deliver_local(const NodeId& key, AppId app, AppMessage& msg, int hops);
  [[nodiscard]] PastryApp* find_app(AppId app) const {
    const auto i = static_cast<std::size_t>(app);
    return i < apps_.size() ? apps_[i] : nullptr;
  }
  [[nodiscard]] std::int64_t proximity_to(const NodeRef& other) const;
  [[nodiscard]] std::optional<NodeRef> rare_case_hop(const NodeId& key, Scope scope) const;

  /// The attached registry, or nullptr.
  [[nodiscard]] obs::Registry* metrics() { return network_.engine().metrics(); }

  net::Network& network_;
  const NodeTable& nodes_;
  NodeRef self_;
  LeafSet leaves_;
  RoutingTable table_;
  LeafSet site_leaves_;
  RoutingTable site_table_;
  std::vector<PastryApp*> apps_;  // indexed by AppId; nullptr = not registered
  bool joined_ = false;
  // One-shot latch for handle_join_reply.  Distinct from joined_, which any
  // learn() (e.g. a concurrent joiner's StateAnnounce) can set before our
  // own reply arrives — that must not suppress the real JoinReply.
  bool join_reply_seen_ = false;
  std::uint64_t forward_count_ = 0;
};
// Per-node memory on 100k-node overlays: keep the node record from
// growing back unnoticed.
static_assert(sizeof(PastryNode) <= 336, "PastryNode grew");

}  // namespace rbay::pastry
