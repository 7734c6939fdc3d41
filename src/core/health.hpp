#pragma once

// Self-hosted health attributes: RBAY monitoring RBAY (docs/HEALTH.md).
//
// The paper's thesis is that an information plane should carry *any*
// per-server attribute; the health plane takes it at its word.  A
// HealthPublisher periodically posts a `rbay.health.*` attribute family
// into every live node's own attribute store — admission queue depth,
// Scribe fan-in, answer-cache hit ratio, replica staleness, parent
// heartbeat lag, and a derived `rbay.health.overloaded` flag — so health
// flows through the same Scribe aggregation trees and 5-step query
// protocol as every other resource.  Registering a TreeSpec over
// `rbay.health.overloaded` then makes
//
//   SELECT COUNT type = server WHERE rbay.health.overloaded = true FROM *
//
// a real federation-health query answered from tree aggregates, with no
// side channel: the gods-eye registry is only used to *verify* the answer
// in tests, never to produce it.
//
// Publication is an ordinary simulation activity (counted engine events,
// store puts, subscription re-evaluations) — unlike the TimeSeries /
// Watchdog observers it intentionally perturbs the run, because the whole
// point is that health *participates* in the federation.  It is off by
// default and enabled per scenario/test.

#include <cstdint>

#include "sim/engine.hpp"
#include "util/sim_time.hpp"

namespace rbay::core {

class RBayCluster;

struct HealthConfig {
  /// Publication period (also the freshness bound of the derived flags).
  util::SimTime interval = util::SimTime::seconds(1);
  /// Queued-query depth at/above which a node declares itself overloaded.
  std::int64_t overload_queue_depth = 4;
};

/// Attribute names published every round.
namespace health_attr {
inline constexpr const char* kQueueDepth = "rbay.health.queue_depth";
inline constexpr const char* kFanIn = "rbay.health.fan_in";
inline constexpr const char* kCacheHitPerMille = "rbay.health.cache_hit_pm";
inline constexpr const char* kStalenessMs = "rbay.health.staleness_ms";
inline constexpr const char* kHeartbeatLagMs = "rbay.health.heartbeat_lag_ms";
inline constexpr const char* kOverloaded = "rbay.health.overloaded";
}  // namespace health_attr

class HealthPublisher {
 public:
  HealthPublisher(RBayCluster& cluster, HealthConfig config);
  ~HealthPublisher();

  HealthPublisher(const HealthPublisher&) = delete;
  HealthPublisher& operator=(const HealthPublisher&) = delete;

  /// Starts the periodic publication round (idempotent).
  void start();
  void stop();

  /// Publishes one round right now across all live nodes.  Returns nodes
  /// published (crashed nodes are skipped — their stores are unreachable,
  /// and their stale flags age out of the trees via normal repair).
  std::size_t publish_all();

  [[nodiscard]] const HealthConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  /// God-view ground truth for tests: live nodes whose *currently
  /// published* overloaded flag is true/false.  Reads the stores the
  /// publisher wrote, not the internals — exactly what the trees saw.
  [[nodiscard]] std::size_t published_overloaded() const;
  [[nodiscard]] std::size_t published_healthy() const;

 private:
  void publish_node(std::size_t index);

  RBayCluster& cluster_;
  HealthConfig config_;
  sim::Timer timer_;
  bool started_ = false;
  std::uint64_t rounds_ = 0;
};

}  // namespace rbay::core
