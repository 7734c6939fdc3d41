#pragma once

// Critical-path analysis and per-query span views over the causal log.
//
// A query's completion is event-driven: each phase ends when its *last*
// outstanding reply (or timeout) arrives, and the "query.finish" terminus
// is recorded with that final event as its parent.  The parent chain walked
// backward from the terminus is therefore the slowest causal chain — the
// critical path — and because every child event happens at or after its
// parent, the per-segment durations telescope exactly:
//
//     sum(segment durations) == terminus.at - root.at == end-to-end latency
//
// (the reconciliation the acceptance test pins).  Segments alternate
// between network legs (a span's send→recv edge, attributed to the
// site→site link and the message's phase) and local processing (the gap
// between arriving at a node and the next causal step it takes).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/causal.hpp"
#include "util/sim_time.hpp"

namespace rbay::obs {

struct CriticalSegment {
  bool network = false;  // send→recv message leg vs local processing gap
  std::uint8_t phase = kPhaseNone;
  std::uint32_t from_site = 0;
  std::uint32_t to_site = 0;   // == from_site for local segments
  std::uint32_t endpoint = 0;  // endpoint where the segment ends
  util::SimTime start = util::SimTime::zero();
  util::SimTime end = util::SimTime::zero();
  const char* what = "";  // message type (network) or next causal step (local)

  [[nodiscard]] util::SimTime duration() const { return end - start; }
};

struct CriticalPath {
  std::uint64_t trace_id = 0;
  std::string query_id;
  /// True when the walk reached the trace's "query.start" root.  False for
  /// traces truncated by the causal-log bound.
  bool complete = false;
  util::SimTime total = util::SimTime::zero();
  std::vector<CriticalSegment> segments;  // in time order
  /// Attributions: summed critical-path sim-time per phase, per site (local
  /// segments), and per directed site→site link (network segments).
  std::map<std::uint8_t, util::SimTime> by_phase;
  std::map<std::uint32_t, util::SimTime> by_site;
  std::map<std::pair<std::uint32_t, std::uint32_t>, util::SimTime> by_link;
  /// The chain's events, time order — lets tests assert the path crosses
  /// specific steps (e.g. "query.backoff_retry").
  std::vector<CausalEvent> chain;

  [[nodiscard]] util::SimTime segment_sum() const;
  [[nodiscard]] bool crosses(std::string_view what) const;

  [[nodiscard]] std::string to_string() const;
  void write_json(std::string& out) const;
};

[[nodiscard]] CriticalPath analyze_critical_path(const CausalLog& log, std::uint64_t trace_id);
[[nodiscard]] CriticalPath analyze_critical_path(const CausalLog& log,
                                                 const std::string& query_id);

// --- Query traces --------------------------------------------------------
//
// The per-query span view of the five-step protocol: one span per phase
// per site attempt, with sim-time bounds and a hop count, plus protocol
// incidents ("conflict", "backoff_retry", ...) between spans.  It is built
// from a trace's causal events when a snapshot is taken; the phase points
// the query layer records (CausalLog::phase_point) carry each span's
// bounds and hops (docs/TRACING.md has the table).
//
// Order rules: events follow the log, i.e. recording order; spans are
// ordered by (start, slot), keeping each slot's recording order, so the
// view is a pure function of the schedule.
// An anycast span still open when its query finishes ends at the finish
// (hops 0); one still open at snapshot time renders zero-length.

struct Span {
  Phase phase = Phase::kProbe;
  int attempt = 1;
  util::SimTime start = util::SimTime::zero();
  util::SimTime end = util::SimTime::zero();
  /// Network legs / member visits attributed to the phase: trees probed,
  /// anycast dispatches, members visited, slots filled, nodes committed.
  int hops = 0;
  std::uint32_t slot = 0;  ///< execution slot that recorded the span

  [[nodiscard]] util::SimTime latency() const { return end - start; }
};

struct TraceEvent {
  util::SimTime at = util::SimTime::zero();
  int attempt = 1;
  const char* what = "";  // the incident's name without its "query." prefix
};

struct QueryTrace {
  std::string query_id;
  util::SimTime started = util::SimTime::zero();
  util::SimTime finished = util::SimTime::zero();
  bool done = false;
  bool satisfied = false;
  /// False when the log bound dropped some of the trace's events.
  bool complete = true;
  int attempts = 0;
  std::vector<Span> spans;
  std::vector<TraceEvent> events;

  [[nodiscard]] bool has_phase(Phase phase) const;
  [[nodiscard]] const Span* first_span(Phase phase) const;
  [[nodiscard]] bool has_event(std::string_view what) const;
};

/// The span view of one query; nullopt when the query was never traced.
[[nodiscard]] std::optional<QueryTrace> build_query_trace(const CausalLog& log,
                                                          const std::string& query_id);

/// Appends every trace's view as a JSON array, ordered by query id.
void write_query_traces_json(const CausalLog& log, std::string& out);

}  // namespace rbay::obs
