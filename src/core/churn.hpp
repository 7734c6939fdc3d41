#pragma once

// Churn driver + reliability publication (paper §VI future work).
//
// Drives exponential up/down sessions for a federation's nodes, feeds
// per-node ReliabilityTrackers, and republishes each node's predicted
// availability as a `reliability` attribute.  A configurable fraction of
// nodes is "churny" (shorter uptimes), so the prediction has signal to
// separate — queries rank candidates with `GROUPBY reliability DESC`.
//
// Gateways are never killed: the directory designates them statically and
// remote queries enter through them.

#include <vector>

#include "core/cluster.hpp"
#include "monitor/reliability.hpp"

namespace rbay::core {

struct ChurnConfig {
  double mean_uptime_s = 300.0;
  double mean_downtime_s = 20.0;
  /// Fraction of nodes whose mean uptime is divided by `churny_penalty`.
  double churny_fraction = 0.3;
  double churny_penalty = 15.0;
};

class ChurnDriver {
 public:
  ChurnDriver(RBayCluster& cluster, ChurnConfig config);
  ~ChurnDriver() { stop(); }

  ChurnDriver(const ChurnDriver&) = delete;
  ChurnDriver& operator=(const ChurnDriver&) = delete;

  /// Schedules the first failure for every non-gateway node and the
  /// periodic reliability refresh.
  void start();
  void stop();

  [[nodiscard]] bool is_churny(std::size_t i) const { return churny_.at(i); }
  [[nodiscard]] bool is_gateway(std::size_t i) const { return gateway_.at(i); }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }

  /// Republishes every live node's predicted availability now.
  void refresh_reliability();

 private:
  void schedule_down(std::size_t i);
  void schedule_up(std::size_t i);
  [[nodiscard]] double uptime_mean(std::size_t i) const {
    return churny_[i] ? config_.mean_uptime_s / config_.churny_penalty : config_.mean_uptime_s;
  }

  RBayCluster& cluster_;
  ChurnConfig config_;
  std::vector<monitor::ReliabilityTracker> trackers_;
  std::vector<bool> churny_;
  std::vector<bool> gateway_;
  std::vector<sim::Timer> timers_;
  sim::Timer refresh_timer_;
  std::uint64_t failures_ = 0;
  std::uint64_t recoveries_ = 0;
};

}  // namespace rbay::core
