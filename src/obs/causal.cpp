#include "obs/causal.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace rbay::obs {

const char* causal_kind_name(CausalKind kind) {
  switch (kind) {
    case CausalKind::kSend: return "send";
    case CausalKind::kRecv: return "recv";
    case CausalKind::kDrop: return "drop";
    case CausalKind::kLocal: return "local";
  }
  return "?";
}

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kProbe: return "probe";
    case Phase::kAnycast: return "anycast";
    case Phase::kMemberSearch: return "member_search";
    case Phase::kSlotFill: return "slot_fill";
    case Phase::kCommit: return "commit";
  }
  return "unknown";
}

namespace {

/// An event carrying `ctx`'s identity, phase and attempt.
CausalEvent stamp(CausalKind kind, const TraceContext& ctx, std::uint32_t site,
                  std::uint32_t endpoint, const char* what, util::SimTime at) {
  CausalEvent ev;
  ev.kind = kind;
  ev.phase = ctx.phase;
  ev.attempt = ctx.attempt;
  ev.site = site;
  ev.endpoint = endpoint;
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
  ev.parent_span_id = ctx.parent_span_id;
  ev.at = at;
  ev.what = what;
  return ev;
}

}  // namespace

const char* phase_label(std::uint8_t phase) {
  if (phase < static_cast<std::uint8_t>(kPhaseCount)) {
    return phase_name(static_cast<Phase>(phase));
  }
  return "none";
}

void CausalLog::set_slots(std::uint32_t slots) {
  RBAY_REQUIRE(slots >= 1 && slots <= kMaxExecSlots,
               "CausalLog::set_slots: slot count out of range (raise kMaxExecSlots)");
  if (slots == slots_.size()) return;
  RBAY_REQUIRE(slots_.size() == 1, "CausalLog::set_slots: slot count already fixed");
  RBAY_REQUIRE(slots_[0].next_trace == 0 && slots_[0].next_span == 0,
               "CausalLog::set_slots: ids already minted under one slot");
  slots_.resize(slots);
}

void CausalLog::reserve_rings(std::size_t endpoint_count) {
  if (rings_.size() >= endpoint_count) return;
  rings_.resize(endpoint_count);
  flight_.resize(endpoint_count * flight_capacity_);
}

TraceContext CausalLog::begin_trace(const std::string& query_id, std::uint32_t site,
                                    std::uint32_t endpoint, util::SimTime at) {
  SlotState& s = slot();
  if (s.begun.size() >= kMaxTraces) return TraceContext{};
  TraceContext ctx;
  ctx.trace_id = mint_trace();
  ctx.span_id = mint_span();
  ctx.parent_span_id = 0;
  s.begun.emplace_back(ctx.trace_id,
                       TraceMeta{.query_id = query_id, .root_span = ctx.span_id, .started = at});
  record(stamp(CausalKind::kLocal, ctx, site, endpoint, "query.start", at));
  return ctx;
}

void CausalLog::finish_trace(const TraceContext& fallback, std::uint32_t site,
                             std::uint32_t endpoint, util::SimTime at, bool satisfied,
                             int attempts) {
  const TraceContext& ambient = current();
  const TraceContext& parent =
      (ambient.active() && ambient.trace_id == fallback.trace_id) ? ambient : fallback;
  if (!parent.active()) return;

  TraceContext ctx = parent;
  ctx.parent_span_id = parent.span_id;
  ctx.span_id = mint_span();
  ctx.phase = kPhaseNone;
  slot().finished.push_back({ctx.trace_id, ctx.span_id, at, satisfied, attempts});
  record(stamp(CausalKind::kLocal, ctx, site, endpoint, "query.finish", at));
}

const TraceMeta* CausalLog::find_trace(std::uint64_t trace_id) const {
  merge_traces();
  const auto it = traces_.find(trace_id);
  return it == traces_.end() ? nullptr : &it->second;
}

std::uint64_t CausalLog::trace_id_for(const std::string& query_id) const {
  merge_traces();
  const auto it = by_query_.find(query_id);
  return it == by_query_.end() ? 0 : it->second;
}

void CausalLog::merge_traces() const {
  std::size_t total = 0;
  for (const SlotState& s : slots_) total += s.begun.size() + s.finished.size() + s.lost.size();
  if (total == traces_from_) return;
  // Every entry is reset to its begin record, then the finishes and
  // losses of all slots apply, each in slot order.  Entries are
  // reassigned, never erased, so the pointers find_trace handed out stay
  // valid.
  for (const SlotState& s : slots_) {
    for (const auto& [trace_id, begun] : s.begun) {
      traces_[trace_id] = begun;
      by_query_[begun.query_id] = trace_id;
    }
  }
  for (const SlotState& s : slots_) {
    for (const TraceFinished& f : s.finished) {
      const auto it = traces_.find(f.trace_id);
      if (it == traces_.end()) continue;
      TraceMeta& meta = it->second;
      meta.terminus_span = f.terminus_span;
      meta.finished = f.at;
      meta.done = true;
      meta.satisfied = f.satisfied;
      meta.attempts = f.attempts;
    }
  }
  for (const SlotState& s : slots_) {
    for (const std::uint64_t trace_id : s.lost) {
      const auto it = traces_.find(trace_id);
      if (it != traces_.end()) it->second.complete = false;
    }
  }
  traces_from_ = total;
}

TraceContext CausalLog::on_send(std::uint32_t site, std::uint32_t endpoint, const char* what,
                                util::SimTime at) {
  const TraceContext ctx = child_of_ambient();
  record(stamp(CausalKind::kSend, ctx, site, endpoint, what, at));
  return ctx;
}

void CausalLog::on_recv(const TraceContext& ctx, std::uint32_t site, std::uint32_t endpoint,
                        const char* what, util::SimTime at) {
  record(stamp(CausalKind::kRecv, ctx, site, endpoint, what, at));
}

void CausalLog::on_drop(const TraceContext& ctx, std::uint32_t site, std::uint32_t endpoint,
                        const char* what, util::SimTime at) {
  record(stamp(CausalKind::kDrop, ctx, site, endpoint, what, at));
}

TraceContext CausalLog::local(std::uint32_t site, std::uint32_t endpoint, const char* what,
                              util::SimTime at, int phase_override) {
  TraceContext ctx = child_of_ambient();
  if (phase_override >= 0) ctx.phase = static_cast<std::uint8_t>(phase_override);
  record(stamp(CausalKind::kLocal, ctx, site, endpoint, what, at));
  return ctx;
}

TraceContext CausalLog::phase_point(std::uint32_t site, std::uint32_t endpoint,
                                    const char* what, Phase phase, util::SimTime since,
                                    util::SimTime at, int hops) {
  TraceContext ctx = child_of_ambient();
  ctx.phase = static_cast<std::uint8_t>(phase);
  CausalEvent ev = stamp(CausalKind::kLocal, ctx, site, endpoint, what, at);
  ev.since = since;
  ev.hops = hops;
  record(ev);
  return ctx;
}

TraceContext CausalLog::child_of_ambient() {
  TraceContext ctx = current();
  if (ctx.active()) {
    ctx.parent_span_id = ctx.span_id;
    ctx.span_id = mint_span();
  }
  return ctx;
}

void CausalLog::set_flight_capacity(std::size_t capacity) {
  flight_capacity_ = capacity == 0 ? 1 : capacity;
  // Existing rings keep their contents up to the new capacity; simplest
  // deterministic behavior is to restart them.  (The Network's run-start
  // hook re-reserves the rings afterwards.)
  rings_.clear();
  flight_.clear();
}

std::vector<CausalEvent> CausalLog::flight_events(std::uint32_t endpoint) const {
  std::vector<CausalEvent> out;
  if (endpoint >= rings_.size()) return out;
  const FlightRing& ring = rings_[endpoint];
  const CausalEvent* events = &flight_[endpoint * flight_capacity_];
  // Until the ring wraps, its events are slots [0, total); after, `next`
  // is the oldest.
  const bool wrapped = ring.total > flight_capacity_;
  const std::size_t n = wrapped ? flight_capacity_ : ring.total;
  const std::size_t start = wrapped ? ring.next : 0;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(events[(start + i) % flight_capacity_]);
  return out;
}

std::string CausalLog::dump_flight(std::uint32_t endpoint) const {
  std::string out;
  const auto evs = flight_events(endpoint);
  const std::uint64_t total = endpoint < rings_.size() ? rings_[endpoint].total : 0;
  out += "flight recorder endpoint " + std::to_string(endpoint) + " (last " +
         std::to_string(evs.size()) + " of " + std::to_string(total) + " events)\n";
  for (const CausalEvent& ev : evs) {
    out += "  t=" + std::to_string(ev.at.as_micros()) + "us " + causal_kind_name(ev.kind) +
           " " + ev.what + " site=" + std::to_string(ev.site) +
           " trace=" + std::to_string(ev.trace_id) + " span=" + std::to_string(ev.span_id) +
           " parent=" + std::to_string(ev.parent_span_id) + " phase=" + phase_label(ev.phase) +
           " attempt=" + std::to_string(ev.attempt) + "\n";
  }
  return out;
}

const std::vector<CausalEvent>& CausalLog::events() const {
  if (slots_.size() == 1) return slots_[0].events;  // one log is already canonical
  std::size_t total = 0;
  for (const SlotState& s : slots_) total += s.events.size();
  if (total != merged_from_) {
    merged_.clear();
    merged_.reserve(total);
    for (const SlotState& s : slots_) {
      merged_.insert(merged_.end(), s.events.begin(), s.events.end());
    }
    // Appending in slot order then stable-sorting by time yields the
    // canonical (at, slot, intra-slot index) order.
    std::stable_sort(merged_.begin(), merged_.end(),
                     [](const CausalEvent& a, const CausalEvent& b) { return a.at < b.at; });
    merged_from_ = total;
  }
  return merged_;
}

std::vector<const CausalEvent*> CausalLog::trace_events(std::uint64_t trace_id) const {
  std::vector<const CausalEvent*> out;
  for (const CausalEvent& ev : events()) {
    if (ev.trace_id == trace_id) out.push_back(&ev);
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> CausalLog::traces_by_query() const {
  merge_traces();
  return {by_query_.begin(), by_query_.end()};
}

void CausalLog::record(CausalEvent ev) {
  SlotState& s = slot();
  ev.slot = static_cast<std::uint8_t>(&s - slots_.data());
  // Flight ring first: it sees every event, traced or not.
  if (ev.endpoint < rings_.size()) {
    FlightRing& ring = rings_[ev.endpoint];
    flight_[ev.endpoint * flight_capacity_ + ring.next] = ev;
    if (++ring.next == flight_capacity_) ring.next = 0;
    if (++ring.total > flight_capacity_ && metrics_ != nullptr) {
      metrics_->counter<"trace.flight_overwrites">().inc();
    }
  }

  if (ev.trace_id == 0) return;
  if (s.events.size() >= kMaxEvents / slots_.size()) {
    if (metrics_ != nullptr) metrics_->counter<"trace.dropped">().inc();
    if (s.lost.empty() || s.lost.back() != ev.trace_id) s.lost.push_back(ev.trace_id);
    return;
  }
  s.events.push_back(ev);
  if (metrics_ != nullptr) metrics_->counter<"trace.events">().inc();
}

}  // namespace rbay::obs
