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
  if (rings_.size() < endpoint_count) rings_.resize(endpoint_count);
}

TraceContext CausalLog::begin_trace(const std::string& query_id, std::uint32_t site,
                                    std::uint32_t endpoint, util::SimTime at) {
  if (trace_count_.load(std::memory_order_relaxed) >= kMaxTraces) return TraceContext{};
  TraceContext ctx;
  ctx.trace_id = mint_trace();
  ctx.span_id = mint_span();
  ctx.parent_span_id = 0;

  TraceMeta meta;
  meta.query_id = query_id;
  meta.root_span = ctx.span_id;
  meta.started = at;
  traces_.get_or_create(ctx.trace_id).ref = std::move(meta);
  by_query_.get_or_create(query_id).ref = ctx.trace_id;
  trace_count_.fetch_add(1, std::memory_order_relaxed);

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
  traces_.with(ctx.trace_id, [&](TraceMeta& meta) {
    meta.terminus_span = ctx.span_id;
    meta.finished = at;
    meta.done = true;
    meta.satisfied = satisfied;
    meta.attempts = attempts;
  });
  record(stamp(CausalKind::kLocal, ctx, site, endpoint, "query.finish", at));
}

const TraceMeta* CausalLog::find_trace(std::uint64_t trace_id) const {
  return traces_.find(trace_id);
}

std::uint64_t CausalLog::trace_id_for(const std::string& query_id) const {
  const std::uint64_t* id = by_query_.find(query_id);
  return id == nullptr ? 0 : *id;
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
  record(std::move(ev));
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
  // hook re-reserves the ring vector afterwards.)
  rings_.clear();
}

std::vector<CausalEvent> CausalLog::flight_events(std::uint32_t endpoint) const {
  std::vector<CausalEvent> out;
  if (endpoint >= rings_.size()) return out;
  const FlightRing& ring = rings_[endpoint];
  const std::size_t n = ring.slots.size();
  out.reserve(n);
  // When the ring has wrapped, `next` points at the oldest slot.
  const std::size_t start = (ring.total > n) ? ring.next : 0;
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring.slots[(start + i) % n]);
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
  std::vector<std::pair<std::string, std::uint64_t>> out;
  by_query_.for_each_ordered([&](const std::string& query_id, const std::uint64_t& trace_id) {
    out.emplace_back(query_id, trace_id);
  });
  return out;
}

std::uint64_t CausalLog::dropped() const {
  std::uint64_t n = 0;
  for (const SlotState& s : slots_) n += s.dropped;
  return n;
}

std::uint64_t CausalLog::flight_overwrites() const {
  std::uint64_t n = 0;
  for (const SlotState& s : slots_) n += s.flight_overwrites;
  return n;
}

void CausalLog::bind_counters(Counter* events, Counter* dropped, Counter* flight_overwrites) {
  events_counter_ = events;
  dropped_counter_ = dropped;
  overwrites_counter_ = flight_overwrites;
}

void CausalLog::record(CausalEvent ev) {
  SlotState& s = slot();
  ev.slot = static_cast<std::uint8_t>(&s - slots_.data());
  // Flight ring first: it sees every event, traced or not.
  if (ev.endpoint < rings_.size()) {
    FlightRing& ring = rings_[ev.endpoint];
    ++ring.total;
    const bool wrapped = ring.slots.size() >= flight_capacity_;
    if (wrapped) {
      ring.slots[ring.next] = ev;
      ring.next = (ring.next + 1) % flight_capacity_;
      ++s.flight_overwrites;
      if (overwrites_counter_ != nullptr) overwrites_counter_->inc();
    } else {
      ring.slots.push_back(ev);
      ring.next = ring.slots.size() % flight_capacity_;
    }
  }

  if (ev.trace_id == 0) return;
  if (s.events.size() >= kMaxEvents / slots_.size()) {
    ++s.dropped;
    if (dropped_counter_ != nullptr) dropped_counter_->inc();
    traces_.with(ev.trace_id, [](TraceMeta& meta) { meta.complete = false; });
    return;
  }
  s.events.push_back(std::move(ev));
  if (events_counter_ != nullptr) events_counter_->inc();
}

}  // namespace rbay::obs
