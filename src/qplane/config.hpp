#pragma once

// Query-plane throughput knobs: window admission (qplane/admission.hpp),
// and answer caching and probe batching in the size table
// (qplane/tree_sizes.hpp).
//
// All three are off by default so existing scenarios and the
// differential-oracle workloads keep their exact semantics unless a knob
// is turned on explicitly (scenario directives `admission-window`,
// `cache-ttl`, `batch-probes`; see docs/QUERY_PLANE.md).

#include "util/sim_time.hpp"

namespace rbay::qplane {

struct QPlaneConfig {
  /// In-flight query budget per query interface (0 = unlimited).  Queries
  /// past the budget queue up to `admission_queue` deep, then shed.
  int admission_window = 0;
  /// FIFO backlog beyond the window (only meaningful with a window).
  int admission_queue = 0;
  /// How long the size table serves a stored root answer (zero = caching
  /// off).  Tie this to the aggregation period: a cached answer can never
  /// be staler than `cache_ttl` because only fresh root answers are stored.
  util::SimTime cache_ttl = util::SimTime::zero();
  /// Coalesce concurrent size-probes for the same (attribute, value) tree
  /// into one in-flight walk whose reply fans out to all waiters.
  bool batch_probes = false;
};

}  // namespace rbay::qplane
