#pragma once

// Tunables for the query plane (reservation holds and the truncated
// exponential backoff of §III.D).

#include "qplane/config.hpp"
#include "util/sim_time.hpp"

namespace rbay::core {

struct QueryConfig {
  /// How long an anycast-made reservation is held before auto-release.
  util::SimTime reservation_hold = util::SimTime::millis(500);
  /// Re-query attempts before a query reports failure.
  int max_attempts = 5;
  /// Per-attempt deadline for site answers: sites that have not replied
  /// (lost probes/anycasts under churn, dead gateways) are treated as
  /// empty and the attempt completes with whatever arrived.
  util::SimTime site_timeout = util::SimTime::seconds(3);
  /// Throughput layer: admission control, probe batching, answer caching
  /// (all off by default; see docs/QUERY_PLANE.md).
  qplane::QPlaneConfig qplane;
};

}  // namespace rbay::core
