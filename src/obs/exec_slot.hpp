#pragma once

// Execution-slot identity for the sharded simulation engine.
//
// Every engine event (docs/PARALLEL_ENGINE.md) executes under an
// *execution slot*: slot 0 is the control shard (setup, benches, churn,
// fault injection, observers — always barrier-serialized) and slot s+1 is
// site s's shard.  The observability layer keys its
// per-shard cells (Gauge stamps, LatencyHisto cells, CausalLog slot logs)
// off this thread-local, so metric writes from concurrently-advancing
// shards never touch shared mutable state and snapshots can merge the
// cells deterministically.  Outside any event the slot is 0.

#include <cstdint>

namespace rbay::obs {

/// Upper bound on execution slots: control + up to 128 site shards.  The
/// engine refuses topologies beyond this (raise and recompile).
inline constexpr std::uint32_t kMaxExecSlots = 129;

struct ExecSlot {
  std::uint32_t index = 0;   ///< 0 = control shard, s+1 = site s's shard
  std::int64_t time_us = 0;  ///< sim-time of the executing event (gauge stamps)
};

/// The calling thread's current execution slot.  Written only by the
/// engine (around event dispatch); read by the metric cells.
inline ExecSlot& exec_slot() {
  static thread_local ExecSlot slot;
  return slot;
}

}  // namespace rbay::obs
