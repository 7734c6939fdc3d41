#pragma once

// The paper's evaluation federation (§IV.A), built with every set-up phase
// timed: eight EC2 sites, 25 aggregation trees (the 23 instance types,
// CPU_utilization < 0.1, GPU = true), and per node a Gaussian-chosen
// instance type carrying the password onGet handler, a uniform
// CPU_utilization, GPU with probability 0.3 and a Matlab version.
// Attribute draws come from the benchmark's own Rng, seeded by --seed.
//
// bench/bench_common.hpp's EvalFederation builds the same federation, but
// in one constructor, with the engine's Rng; the benchmark needs each phase
// timed on its own, and its workloads must not move when the figure benches
// do.

#include <functional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace perfbench {

const std::vector<std::string>& instance_types();
/// Gaussian-weighted instance type: centre types get more members.
const std::string& gaussian_instance_type(rbay::util::Rng& rng);

struct FederationConfig {
  std::size_t per_site = 150;
  std::uint64_t seed = 1;
  bool metrics = false;
  /// Adjusts the cluster config (query-plane knobs, heartbeats).
  std::function<void(rbay::core::ClusterConfig&)> tune;
};

class Federation {
 public:
  Federation(const FederationConfig& config, Spans& spans);

  /// Populates, posts attributes, finalizes, and runs the 3 s aggregation
  /// warm-up; each phase is a span.  Traced federations also time
  /// Overlay::build_static on an identical stand-alone overlay, because
  /// RBayCluster::finalize calls it internally.
  void build();
  /// Reports the set-up layers: scribe.finalize_s, pastry.build_static_s
  /// and store.post_us_p50.
  void layers(Result& result) const;

  rbay::core::RBayCluster cluster;
  rbay::util::Rng rng;

 private:
  rbay::util::Samples post_us_;  // host µs per RBayNode::post during build()
  double finalize_s_ = 0.0;
  double build_static_s_ = 0.0;
  FederationConfig config_;
  Spans& spans_;
};

/// God view: nodes of `site` whose store satisfies `pred` (failed nodes
/// excluded).
std::size_t count_matching(rbay::core::RBayCluster& cluster, rbay::net::SiteId site,
                           const rbay::query::Predicate& pred);

/// Sum of RBayNode::gets_served() over the federation.
std::uint64_t total_gets_served(rbay::core::RBayCluster& cluster);

}  // namespace perfbench
