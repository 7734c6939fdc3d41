#pragma once

// Synthetic resource monitor — the stand-in for the paper's per-site
// monitoring infrastructure (Libvirt API, OpenManage, Tivoli, CloudWatch).
//
// "When a node initially joins RBAY, RBAY assigns it a key-value map which
// directly reflects resource attribute updates through an underlying
// monitoring infrastructure" (§III.A).  This module generates those updates
// with simple per-metric stochastic models so the subscription-churn code
// paths (onSubscribe/onUnsubscribe re-evaluation) are exercised exactly as
// a real monitoring feed would.

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "sim/engine.hpp"
#include "store/attribute_store.hpp"
#include "util/rng.hpp"

namespace rbay::monitor {

/// Bounded random walk (e.g. CPU utilization drifting between 0 and 1).
struct RandomWalk {
  double initial = 0.5;
  double min = 0.0;
  double max = 1.0;
  double step = 0.05;
};

/// Fixed value (e.g. installed software version).
struct Constant {
  store::AttributeValue value;
};

/// Boolean that flips with probability p per tick (e.g. device plugged /
/// unplugged, resource exposed / withdrawn).
struct Flip {
  bool initial = true;
  double flip_probability = 0.01;
};

/// Gaussian around a mean, clamped (e.g. free memory in GB).
struct Noisy {
  double mean = 4.0;
  double stddev = 0.5;
  double min = 0.0;
  double max = 1e18;
};

using MetricModel = std::variant<RandomWalk, Constant, Flip, Noisy>;

struct MetricSpec {
  std::string attribute;
  MetricModel model;
};

/// Drives one node's AttributeStore.  tick() advances every metric one
/// step; start() arranges periodic ticks on the simulation engine.
class ResourceMonitor {
 public:
  ResourceMonitor(store::AttributeStore& store, util::Rng rng)
      : store_(store), rng_(rng) {}

  ~ResourceMonitor() { stop(); }
  ResourceMonitor(const ResourceMonitor&) = delete;
  ResourceMonitor& operator=(const ResourceMonitor&) = delete;

  /// Declares a metric and writes its initial value into the store.
  void add_metric(MetricSpec spec);

  /// Advances all metrics one step and updates the store.
  void tick();

  /// Ticks every `interval` on `engine` until stop() (or destruction).
  void start(sim::Engine& engine, util::SimTime interval);
  void stop() { timer_.cancel(); }

  /// Fires after every tick (RBAY core uses this to re-evaluate
  /// subscriptions, the paper's onSubscribe/onUnsubscribe churn).
  std::function<void()> on_tick;

  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  struct MetricState {
    MetricSpec spec;
    double walk_value = 0.0;
    bool flip_value = true;
  };

  void apply(MetricState& m);

  store::AttributeStore& store_;
  util::Rng rng_;
  std::vector<MetricState> metrics_;
  sim::Timer timer_;
  std::uint64_t ticks_ = 0;
};

/// Convenience: the standard metric set used by the evaluation workloads —
/// CPU utilization walk, memory, GPU flag, a software version string.
std::vector<MetricSpec> standard_node_metrics(util::Rng& rng);

}  // namespace rbay::monitor
