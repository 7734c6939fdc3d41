#pragma once

// Causal event log + ambient context + per-endpoint flight recorder.
//
// The CausalLog lives inside the obs::Registry and is the single authority
// for span identity.  Three cooperating mechanisms:
//
//   * Ambient context.  "The context of the code currently running" is one
//     TraceContext slot per *execution slot* (obs/exec_slot.hpp): every
//     site shard has its own ambient slot, since shards execute handlers
//     concurrently.  The network sets it (via ContextScope) around every
//     delivery handler; trace roots and timer continuations set it
//     explicitly.  on_send()/local() mint child spans of whatever is
//     ambient — that is the whole propagation rule.
//   * Global causal log.  Every event that belongs to a trace
//     (trace_id != 0) is appended to a per-slot, bounded, append-only
//     vector in that shard's simulation order.  events() presents the
//     merged view, ordered by (sim-time, slot, intra-slot order) — a pure
//     function of the deterministic per-shard sequences, so the merged log
//     (and the Chrome export built from it) is byte-identical at any
//     worker-thread count.  Bounded by kMaxEvents split evenly across
//     slots; past that, traced events are counted in trace.dropped and
//     their trace is marked incomplete (TraceMeta::complete).
//   * Flight recorder.  Every event — traced or not — is also written into
//     a small per-endpoint ring (set_flight_capacity), so when a chaos
//     invariant fails the harness can dump the last N causal events of the
//     nodes named in the report.  Each endpoint's ring is written only by
//     its site's shard (plus barrier-serialized control events), so rings
//     need no locks — but they must be pre-sized via reserve_rings()
//     because growing the ring vector would move rings other shards are
//     writing.  Events for an endpoint without a ring skip the recorder.  Ring overwrites are routine and count into
//     trace.flight_overwrites, never into trace.dropped.
//
// The per-query span view (obs/critical_path.hpp, build_query_trace) is
// derived from this log at snapshot time; phase_point() records the
// figures it needs that no message event carries.
//
// Determinism: timestamps are sim-time; span/trace ids are minted from
// per-slot counters strided by the slot count S (slot k mints k+1, k+1+S,
// ...), so ids are a pure function of (seed, shard).

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/context.hpp"
#include "obs/exec_slot.hpp"
#include "util/sim_time.hpp"
#include "util/striped_map.hpp"

namespace rbay::obs {

class Counter;

enum class CausalKind : std::uint8_t {
  kSend = 0,   // message handed to the network at the sender
  kRecv = 1,   // message delivered to the receiver's handler
  kDrop = 2,   // message lost (dead endpoint, partition, loss probability)
  kLocal = 3,  // local operation worth a causal point (deliver, slot fill, ...)
};

[[nodiscard]] const char* causal_kind_name(CausalKind kind);
/// "probe".."commit" for obs::Phase values, "none" for kPhaseNone.
[[nodiscard]] const char* phase_label(std::uint8_t phase);

struct CausalEvent {
  CausalKind kind = CausalKind::kLocal;
  std::uint8_t phase = kPhaseNone;
  std::uint8_t attempt = 0;
  std::uint8_t slot = 0;       // execution slot that recorded the event
  std::uint32_t site = 0;      // site where the event happened
  std::uint32_t endpoint = 0;  // endpoint where the event happened
  std::int32_t hops = 0;       // phase points only: the span's hop figure
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  util::SimTime at = util::SimTime::zero();
  util::SimTime since = util::SimTime::zero();  // phase points: span start
  std::string what;  // payload type name or local-op label
};

static_assert(kMaxExecSlots <= 256, "CausalEvent::slot stores the execution slot in one byte");

struct TraceMeta {
  std::string query_id;
  std::uint64_t root_span = 0;
  std::uint64_t terminus_span = 0;  // span of the "query.finish" event
  util::SimTime started = util::SimTime::zero();
  util::SimTime finished = util::SimTime::zero();
  bool done = false;
  bool satisfied = false;
  int attempts = 0;
  /// False once the log bound dropped one of this trace's events: its
  /// span view and critical path may be missing steps.
  bool complete = true;
};

class CausalLog {
 public:
  /// Global log bound: ~256k events, split evenly across execution slots.
  /// Long bench runs saturate this; the critical-path analyzer reports
  /// such traces as incomplete rather than wrong.
  static constexpr std::size_t kMaxEvents = std::size_t{1} << 18;
  static constexpr std::size_t kMaxTraces = 4096;
  static constexpr std::size_t kDefaultFlightCapacity = 64;

  // --- sharding ----------------------------------------------------------
  /// Declares the execution-slot count (site shards + control).  Called by
  /// the engine before its first run, while only slot 0 has state.  A log
  /// that is never told keeps one slot.
  void set_slots(std::uint32_t slots);
  /// Pre-sizes the flight-ring vector (a run must not grow it from inside
  /// a window; see the flight-recorder note above).
  void reserve_rings(std::size_t endpoint_count);

  // --- ambient context ---------------------------------------------------
  [[nodiscard]] const TraceContext& current() const { return slot().current; }
  TraceContext exchange(TraceContext ctx) {
    SlotState& s = slot();
    TraceContext prev = s.current;
    s.current = ctx;
    return prev;
  }

  // --- trace lifecycle ---------------------------------------------------
  /// Mints a trace + root span and records the "query.start" event.
  /// Returns an inactive context once kMaxTraces traces exist.
  TraceContext begin_trace(const std::string& query_id, std::uint32_t site,
                           std::uint32_t endpoint, util::SimTime at);
  /// Records the "query.finish" terminus.  Its parent is the ambient span
  /// when that belongs to the same trace (the reply/timeout that completed
  /// the query — which makes the parent chain the critical path), else
  /// `fallback` (the stored per-query context).
  void finish_trace(const TraceContext& fallback, std::uint32_t site, std::uint32_t endpoint,
                    util::SimTime at, bool satisfied, int attempts);

  [[nodiscard]] const TraceMeta* find_trace(std::uint64_t trace_id) const;
  /// 0 when the query was never traced.
  [[nodiscard]] std::uint64_t trace_id_for(const std::string& query_id) const;

  // --- event recording ---------------------------------------------------
  /// Mints a child span of the ambient context and records kSend.  Returns
  /// the context to stamp on the message (inactive when no trace is
  /// ambient; the event still reaches the flight ring).
  TraceContext on_send(std::uint32_t site, std::uint32_t endpoint, const char* what,
                       util::SimTime at);
  void on_recv(const TraceContext& ctx, std::uint32_t site, std::uint32_t endpoint,
               const char* what, util::SimTime at);
  void on_drop(const TraceContext& ctx, std::uint32_t site, std::uint32_t endpoint,
               const char* what, util::SimTime at);
  /// Records a local operation as a child span of the ambient context.
  /// `phase_override` (an obs::Phase value) replaces the inherited phase;
  /// pass -1 to inherit.  Returns the minted context.
  TraceContext local(std::uint32_t site, std::uint32_t endpoint, const char* what,
                     util::SimTime at, int phase_override = -1);
  /// Records a phase point: a local event tagged `phase` that closes the
  /// query-trace span [since, at] and carries its hop figure.
  TraceContext phase_point(std::uint32_t site, std::uint32_t endpoint, const char* what,
                           Phase phase, util::SimTime since, util::SimTime at, int hops);

  // --- flight recorder ---------------------------------------------------
  void set_flight_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t flight_capacity() const { return flight_capacity_; }
  /// Ring contents for `endpoint`, oldest first.
  [[nodiscard]] std::vector<CausalEvent> flight_events(std::uint32_t endpoint) const;
  /// Human-readable ring dump ("  t=... send pastry.Route trace=3 ...").
  [[nodiscard]] std::string dump_flight(std::uint32_t endpoint) const;

  // --- access ------------------------------------------------------------
  /// All traced events in canonical order: a snapshot-time merge of the
  /// per-slot logs, ordered by (at, slot, intra-slot index) and cached
  /// until new events arrive (a log never told its slot count returns its
  /// one log).  Snapshot-time only.
  [[nodiscard]] const std::vector<CausalEvent>& events() const;
  [[nodiscard]] std::vector<const CausalEvent*> trace_events(std::uint64_t trace_id) const;
  /// Query ids of every trace, ordered, each with its trace id.
  /// Snapshot-time only.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> traces_by_query() const;
  /// Traced events lost to the log bound.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Flight-ring wraps: routine, and unrelated to trace completeness.
  [[nodiscard]] std::uint64_t flight_overwrites() const;

  /// Binds the trace.events / trace.dropped / trace.flight_overwrites
  /// counters.  The Registry calls this lazily from its causal() accessor
  /// so a registry that never traces never grows the counters.
  void bind_counters(Counter* events, Counter* dropped, Counter* flight_overwrites);

 private:
  struct FlightRing {
    std::vector<CausalEvent> slots;  // insertion order wraps at capacity
    std::size_t next = 0;
    std::uint64_t total = 0;
  };

  /// Per-execution-slot state: ambient context, id counters, event log.
  /// Each is touched only by its shard (or barrier-serialized control).
  struct SlotState {
    TraceContext current{};
    std::uint64_t next_trace = 0;
    std::uint64_t next_span = 0;
    std::uint64_t dropped = 0;
    std::uint64_t flight_overwrites = 0;
    std::vector<CausalEvent> events;
  };

  SlotState& slot() {
    const std::uint32_t index = exec_slot().index;
    return slots_[index < slots_.size() ? index : 0];
  }
  [[nodiscard]] const SlotState& slot() const {
    const std::uint32_t index = exec_slot().index;
    return slots_[index < slots_.size() ? index : 0];
  }

  std::uint64_t mint_span() {
    SlotState& s = slot();
    return (s.next_span++) * slots_.size() + (&s - slots_.data()) + 1;
  }
  std::uint64_t mint_trace() {
    SlotState& s = slot();
    return (s.next_trace++) * slots_.size() + (&s - slots_.data()) + 1;
  }
  /// The ambient context with a freshly minted child span (unchanged when
  /// no trace is ambient).
  TraceContext child_of_ambient();
  void record(CausalEvent ev);

  std::vector<SlotState> slots_{1};
  util::StripedMap<std::uint64_t, TraceMeta> traces_;
  util::StripedMap<std::string, std::uint64_t> by_query_;
  std::atomic<std::size_t> trace_count_{0};
  std::vector<FlightRing> rings_;  // indexed by endpoint; pre-sized
  std::size_t flight_capacity_ = kDefaultFlightCapacity;
  Counter* events_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  Counter* overwrites_counter_ = nullptr;
  /// Merged-events cache, rebuilt when the per-slot totals change.
  mutable std::vector<CausalEvent> merged_;
  mutable std::size_t merged_from_ = 0;
};

/// RAII swap of the ambient context.  Null-log tolerant so instrumented
/// paths need no branches of their own.
class ContextScope {
 public:
  ContextScope() = default;
  ContextScope(CausalLog* log, TraceContext ctx) : log_(log) {
    if (log_ != nullptr) prev_ = log_->exchange(ctx);
  }
  ~ContextScope() {
    if (log_ != nullptr) log_->exchange(prev_);
  }

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  CausalLog* log_ = nullptr;
  TraceContext prev_{};
};

}  // namespace rbay::obs
