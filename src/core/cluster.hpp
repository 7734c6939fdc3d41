#pragma once

// RBayCluster: whole-federation harness.
//
// Owns the simulation engine, the Pastry overlay, and every RBayNode.
// Mirrors the paper's deployment: k sites (EC2 regions), n nodes per site,
// a federation-wide set of aggregation-tree specs (e.g. the 23 EC2
// instance types), a shared attribute taxonomy, and one designated gateway
// ("border router") per site.

#include <memory>
#include <string>
#include <vector>

#include "core/health.hpp"
#include "core/query_interface.hpp"
#include "core/rbay_node.hpp"
#include "obs/export_chrome.hpp"
#include "obs/metrics.hpp"

namespace rbay::core {

struct ClusterConfig {
  net::Topology topology = net::Topology::single_site();
  std::uint64_t seed = 42;
  /// Engine configuration (docs/PARALLEL_ENGINE.md).  The worker count is
  /// read from RBAY_SIM_THREADS so whole test suites can run on several
  /// workers without code changes; in-process callers set it explicitly
  /// (e.g. the parallel-equivalence matrix).
  sim::EngineConfig engine = sim::EngineConfig::from_env();
  pastry::PastryConfig pastry;
  RBayNodeConfig node;
  /// Attach an obs::Registry to the engine: every layer then records
  /// counters/latencies and the query tracer collects spans.  Off by
  /// default — detached instrumentation is a pointer check per event.
  bool metrics = false;
};

class RBayCluster {
 public:
  explicit RBayCluster(ClusterConfig config);

  RBayCluster(const RBayCluster&) = delete;
  RBayCluster& operator=(const RBayCluster&) = delete;

  // --- construction -----------------------------------------------------
  /// Adds one node at `site` (before finalize()).
  RBayNode& add_node(net::SiteId site, const std::string& admin = "admin");

  /// Adds `per_site` nodes to every site.
  void populate(std::size_t per_site);

  /// Registers a federation-wide aggregation tree.
  void add_tree_spec(TreeSpec spec);

  /// Registers the hybrid-naming taxonomy (optional).
  void set_taxonomy(Taxonomy taxonomy);

  /// Builds routing state, designates gateways, distributes the directory,
  /// tree specs, and taxonomy to every node, and subscribes every node to
  /// the trees its attributes satisfy.
  void finalize();

  // --- access ------------------------------------------------------------
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] RBayNode& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] pastry::Overlay& overlay() { return overlay_; }
  [[nodiscard]] net::Network& network() { return overlay_.network(); }
  [[nodiscard]] const Directory& directory() const { return *directory_; }
  /// The observability registry, or nullptr when config.metrics is false.
  [[nodiscard]] obs::Registry* metrics() { return metrics_.get(); }
  [[nodiscard]] const std::vector<TreeSpec>& tree_specs() const { return *tree_specs_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  [[nodiscard]] std::vector<std::size_t> nodes_in_site(net::SiteId site) const;

  /// Display labels for the Chrome-trace exporter: one "process" per site
  /// (topology names), one "thread" per node (short hex id).
  [[nodiscard]] obs::ChromeTraceLabels chrome_labels() const;

  /// Nodes' indices by NodeId (for test assertions).
  [[nodiscard]] std::size_t index_of(const pastry::NodeId& id) const {
    return overlay_.index_of(id);
  }

  /// Runs the simulation until quiescent / for a duration.
  void run() { engine_.run(); }
  void run_for(util::SimTime t) { engine_.run_for(t); }

  /// Forces a subscription re-evaluation on every node.
  void resubscribe_all();

  /// Enables the self-hosted health plane (docs/HEALTH.md): starts the
  /// periodic rbay.health.* publisher across all live nodes.  Call after
  /// finalize(); pair with a TreeSpec over `rbay.health.overloaded` to make
  /// federation health queryable.
  HealthPublisher& enable_health(HealthConfig config);
  /// The health publisher, or nullptr when not enabled.
  [[nodiscard]] HealthPublisher* health() { return health_.get(); }

 private:
  /// Overlay fail hook: releases reservations/leases held by the crashed
  /// node on every live resource (see ctor).
  void on_node_crashed(std::size_t index);

  ClusterConfig config_;
  sim::Engine engine_;
  std::unique_ptr<obs::Registry> metrics_;
  pastry::Overlay overlay_;
  std::vector<std::unique_ptr<RBayNode>> nodes_;
  std::shared_ptr<std::vector<TreeSpec>> tree_specs_;
  std::shared_ptr<Taxonomy> taxonomy_;
  std::shared_ptr<Directory> directory_;
  std::unique_ptr<HealthPublisher> health_;  // after nodes_: stops first
  bool finalized_ = false;
};

}  // namespace rbay::core
