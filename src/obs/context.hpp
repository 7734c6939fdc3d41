#pragma once

// Causal trace context: the identity a message (or local operation) carries
// through the federation.  A TraceContext is stamped on every net::Network
// message at send time and re-established as the "ambient" context around
// the receiver's handler, so causality propagates through pastry routing,
// scribe multicast/anycast, and the query protocol without any protocol
// struct having to thread it by hand.
//
// One span per causal step: a network message is one span (its send and
// recv events share the span id), a recorded local operation is one span.
// parent_span_id points at the span that was ambient when the step was
// created, which is exactly the message/operation that caused it.
//
// The struct is trivially copyable and fits in four words: it is cheap to
// stash in pending-state tables (query retries, timers) so continuations
// that fire outside any delivery can rejoin their trace.

#include <cstdint>

namespace rbay::obs {

/// The five steps of the composite query protocol (paper Fig. 7).
///
///   Probe        steps 1-2: size-probe every predicate tree
///   Anycast      step 3:    dispatch the k-slot buffer into the smallest tree
///   MemberSearch step 4a:   the DFS walk visiting tree members
///   SlotFill     step 4b:   members reserving themselves and filling slots
///   Commit       step 5:    assigning the k best / releasing the surplus
enum class Phase : std::uint8_t {
  kProbe = 0,
  kAnycast = 1,
  kMemberSearch = 2,
  kSlotFill = 3,
  kCommit = 4,
};

inline constexpr int kPhaseCount = 5;

[[nodiscard]] const char* phase_name(Phase phase);

/// Sentinel for "no protocol phase attributed" (see obs::Phase for 0..4).
inline constexpr std::uint8_t kPhaseNone = 0xFF;

struct TraceContext {
  std::uint64_t trace_id = 0;        // 0 = not part of any trace
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint8_t phase = kPhaseNone;   // obs::Phase value, or kPhaseNone
  std::uint8_t attempt = 0;          // query attempt number, 0 = n/a

  [[nodiscard]] bool active() const { return trace_id != 0; }
};

}  // namespace rbay::obs
