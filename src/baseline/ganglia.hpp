#pragma once

// Ganglia-like centralized monitoring baseline (§II.A, Fig. 3a).
//
// "Within a cluster, each node multicasts its local state ... multiple
// clusters' states are aggregated to the tree root by polling child nodes
// at periodic intervals.  The root is connected to a web front end, which
// is the major point interacting with admins and serving all posted
// queries."  The ablation bench compares this architecture's central
// bottleneck (inbound bytes at the root, query funneling) against RBAY's
// decentralized trees.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "store/attribute.hpp"

namespace rbay::baseline {

class GangliaFederation {
 public:
  /// Builds one master per site, `members_per_site` member nodes each, and
  /// a central manager co-located in site 0.
  GangliaFederation(sim::Engine& engine, net::Topology topology, std::size_t members_per_site);

  /// Starts the periodic poll cycle (one per simulated second).
  void start();
  void stop();

  /// Issues a query from `site`; the callback receives the number of
  /// matching nodes in the central manager's (possibly stale) view.
  /// Queries always funnel through the central manager.
  void query(net::SiteId site, const std::string& attribute,
             std::function<void(int matches)> callback);

  /// Updates one member's attribute value (visible at the central manager
  /// only after the next poll cycle — the staleness cost of polling).
  void set_member_attribute(net::SiteId site, std::size_t member, const std::string& attribute,
                            store::AttributeValue value);

  // --- bottleneck observability -------------------------------------------
  [[nodiscard]] std::uint64_t central_bytes_received() const;
  [[nodiscard]] std::uint64_t central_messages_received() const;
  [[nodiscard]] std::uint64_t poll_cycles() const { return cycles_; }

 private:
  struct Member {
    net::EndpointId endpoint = net::kInvalidEndpoint;
    std::map<std::string, store::AttributeValue> attributes;
  };
  struct Cluster {
    net::EndpointId master = net::kInvalidEndpoint;
    std::vector<Member> members;
    // Master's latest aggregated snapshot: attribute → matching member count.
    std::map<std::string, int> snapshot;
    std::size_t snapshot_bytes = 0;
  };

  void poll_cycle();
  void on_central(net::Envelope env);
  void on_master(net::SiteId site, net::Envelope env);
  void on_member(net::SiteId site, std::size_t index, net::Envelope env);

  sim::Engine& engine_;
  net::Network network_;
  std::vector<Cluster> clusters_;
  net::EndpointId central_ = net::kInvalidEndpoint;
  // Central manager's federated view: per site, attribute → match count.
  std::vector<std::map<std::string, int>> central_view_;
  std::map<std::uint64_t, std::function<void(int)>> query_waiters_;
  std::uint64_t next_query_ = 1;
  std::uint64_t cycles_ = 0;
  sim::Timer poll_timer_;

 public:
  [[nodiscard]] net::Network& network() { return network_; }
};

}  // namespace rbay::baseline
