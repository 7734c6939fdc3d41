#include "obs/critical_path.hpp"

#include <algorithm>
#include <string_view>

#include "obs/json.hpp"

namespace rbay::obs {

namespace {

struct SpanEvents {
  const CausalEvent* send = nullptr;
  const CausalEvent* recv = nullptr;
  const CausalEvent* local = nullptr;
};

}  // namespace

util::SimTime CriticalPath::segment_sum() const {
  util::SimTime sum = util::SimTime::zero();
  for (const CriticalSegment& seg : segments) sum = sum + seg.duration();
  return sum;
}

bool CriticalPath::crosses(std::string_view what) const {
  return std::any_of(chain.begin(), chain.end(),
                     [what](const CausalEvent& ev) { return what == ev.what; });
}

CriticalPath analyze_critical_path(const CausalLog& log, std::uint64_t trace_id) {
  CriticalPath path;
  path.trace_id = trace_id;
  const TraceMeta* meta = log.find_trace(trace_id);
  if (meta == nullptr) return path;
  path.query_id = meta->query_id;

  std::map<std::uint64_t, SpanEvents> spans;
  for (const CausalEvent& ev : log.events()) {
    if (ev.trace_id != trace_id) continue;
    SpanEvents& se = spans[ev.span_id];
    switch (ev.kind) {
      case CausalKind::kSend: se.send = &ev; break;
      case CausalKind::kRecv: se.recv = &ev; break;
      case CausalKind::kDrop: break;  // a dropped message causes nothing
      case CausalKind::kLocal: se.local = &ev; break;
    }
  }
  if (meta->terminus_span == 0) return path;  // query never finished

  // Walk the parent chain backward from the terminus.  Each span
  // contributes its local event, or its recv then send events.  The loop is
  // bounded by the span count (parents are strictly older, so no cycles —
  // the guard only protects against a corrupted log).
  std::vector<const CausalEvent*> backward;
  std::uint64_t span = meta->terminus_span;
  bool reached_root = false;
  for (std::size_t steps = 0; span != 0 && steps <= spans.size() + 1; ++steps) {
    auto it = spans.find(span);
    if (it == spans.end()) break;  // truncated by the causal-log bound
    const SpanEvents& se = it->second;
    std::uint64_t parent = 0;
    if (se.local != nullptr) {
      backward.push_back(se.local);
      parent = se.local->parent_span_id;
    } else if (se.recv != nullptr || se.send != nullptr) {
      if (se.recv != nullptr) backward.push_back(se.recv);
      if (se.send != nullptr) backward.push_back(se.send);
      parent = se.send != nullptr ? se.send->parent_span_id
                                  : se.recv->parent_span_id;
    } else {
      break;
    }
    if (span == meta->root_span) {
      reached_root = true;
      break;
    }
    span = parent;
  }
  path.complete = reached_root;
  if (backward.size() < 2) return path;

  path.chain.reserve(backward.size());
  for (auto it = backward.rbegin(); it != backward.rend(); ++it) path.chain.push_back(**it);

  path.total = path.chain.back().at - path.chain.front().at;
  for (std::size_t i = 0; i + 1 < path.chain.size(); ++i) {
    const CausalEvent& a = path.chain[i];
    const CausalEvent& b = path.chain[i + 1];
    CriticalSegment seg;
    seg.start = a.at;
    seg.end = b.at;
    seg.phase = b.phase;
    seg.what = b.what;
    seg.endpoint = b.endpoint;
    seg.to_site = b.site;
    if (b.kind == CausalKind::kRecv && a.kind == CausalKind::kSend &&
        a.span_id == b.span_id) {
      seg.network = true;
      seg.from_site = a.site;
      path.by_link[{seg.from_site, seg.to_site}] =
          path.by_link[{seg.from_site, seg.to_site}] + seg.duration();
    } else {
      seg.from_site = b.site;
      path.by_site[seg.to_site] = path.by_site[seg.to_site] + seg.duration();
    }
    path.by_phase[seg.phase] = path.by_phase[seg.phase] + seg.duration();
    path.segments.push_back(seg);
  }
  return path;
}

CriticalPath analyze_critical_path(const CausalLog& log, const std::string& query_id) {
  return analyze_critical_path(log, log.trace_id_for(query_id));
}

std::string CriticalPath::to_string() const {
  std::string out;
  out += "critical path for " + query_id + " (trace " + std::to_string(trace_id) + ", " +
         (complete ? "complete" : "INCOMPLETE") + ", total " +
         std::to_string(total.as_micros()) + "us)\n";
  for (const CriticalSegment& seg : segments) {
    out += "  +" + std::to_string(seg.duration().as_micros()) + "us ";
    out += seg.network ? "net   " : "local ";
    out += seg.what;
    if (seg.network) {
      out += " site " + std::to_string(seg.from_site) + " -> " + std::to_string(seg.to_site);
    } else {
      out += " site " + std::to_string(seg.to_site) + " ep " + std::to_string(seg.endpoint);
    }
    out += " phase=" + std::string(phase_label(seg.phase)) + "\n";
  }
  out += "  by phase:";
  for (const auto& [phase, t] : by_phase) {
    out += ' ';
    out += phase_label(phase);
    out += '=';
    out += std::to_string(t.as_micros());
    out += "us";
  }
  out += "\n";
  return out;
}

void CriticalPath::write_json(std::string& out) const {
  out += '{';
  json::append_key(out, "query_id");
  json::append_string(out, query_id);
  out += ',';
  json::append_key(out, "trace_id");
  json::append_uint(out, trace_id);
  out += ',';
  json::append_key(out, "complete");
  out += complete ? "true" : "false";
  out += ',';
  json::append_key(out, "total_us");
  json::append_int(out, total.as_micros());
  out += ',';
  json::append_key(out, "segments");
  out += '[';
  json::Comma segc;
  for (const CriticalSegment& seg : segments) {
    segc.next(out);
    out += '{';
    json::append_key(out, "kind");
    json::append_string(out, seg.network ? "net" : "local");
    out += ',';
    json::append_key(out, "what");
    json::append_string(out, seg.what);
    out += ',';
    json::append_key(out, "phase");
    json::append_string(out, phase_label(seg.phase));
    out += ',';
    json::append_key(out, "from_site");
    json::append_uint(out, seg.from_site);
    out += ',';
    json::append_key(out, "to_site");
    json::append_uint(out, seg.to_site);
    out += ',';
    json::append_key(out, "start_us");
    json::append_int(out, seg.start.as_micros());
    out += ',';
    json::append_key(out, "end_us");
    json::append_int(out, seg.end.as_micros());
    out += '}';
  }
  out += "],";
  json::append_key(out, "by_phase");
  out += '{';
  json::Comma phc;
  for (const auto& [phase, t] : by_phase) {
    phc.next(out);
    json::append_key(out, phase_label(phase));
    json::append_int(out, t.as_micros());
  }
  out += "},";
  json::append_key(out, "by_site");
  out += '{';
  json::Comma sc;
  for (const auto& [site, t] : by_site) {
    sc.next(out);
    json::append_key(out, std::to_string(site));
    json::append_int(out, t.as_micros());
  }
  out += "},";
  json::append_key(out, "by_link");
  out += '[';
  json::Comma lc;
  for (const auto& [link, t] : by_link) {
    lc.next(out);
    out += '{';
    json::append_key(out, "from");
    json::append_uint(out, link.first);
    out += ',';
    json::append_key(out, "to");
    json::append_uint(out, link.second);
    out += ',';
    json::append_key(out, "us");
    json::append_int(out, t.as_micros());
    out += '}';
  }
  out += "]}";
}

// --- Query traces -----------------------------------------------------------

bool QueryTrace::has_phase(Phase phase) const { return first_span(phase) != nullptr; }

const Span* QueryTrace::first_span(Phase phase) const {
  const auto it = std::find_if(spans.begin(), spans.end(),
                               [phase](const Span& s) { return s.phase == phase; });
  return it == spans.end() ? nullptr : &*it;
}

bool QueryTrace::has_event(std::string_view what) const {
  return std::any_of(events.begin(), events.end(),
                     [what](const TraceEvent& e) { return what == e.what; });
}

namespace {

constexpr std::string_view kQueryPrefix = "query.";

/// Local points rendered as trace events, named without the prefix.
bool is_incident(std::string_view what) {
  return what == "query.site_timeout" || what == "query.backoff_retry" ||
         what == "query.conflict" || what == "query.stale_answer";
}

/// The span view of one trace, from its events in log order.
QueryTrace view_of(const TraceMeta& meta, const std::vector<const CausalEvent*>& events) {
  QueryTrace trace;
  trace.query_id = meta.query_id;
  trace.started = meta.started;
  trace.finished = meta.finished;
  trace.done = meta.done;
  trace.satisfied = meta.satisfied;
  trace.complete = meta.complete;
  trace.attempts = meta.attempts;

  // Anycast spans whose walk has not ended, keyed by the span id of their
  // "query.anycast" point (the walk-end points are its children).
  std::map<std::uint64_t, std::size_t> open;
  auto add = [&](const CausalEvent& ev, Phase phase, util::SimTime start, int hops) {
    trace.spans.push_back(Span{phase, ev.attempt, start, ev.at, hops, ev.slot});
  };
  auto close_open = [&](util::SimTime at) {
    for (const auto& [span_id, index] : open) trace.spans[index].end = at;
    open.clear();
  };
  for (const CausalEvent* ev : events) {
    if (ev->kind != CausalKind::kLocal) continue;
    const std::string_view what = ev->what;
    if (what == "query.probe") {
      add(*ev, Phase::kProbe, ev->since, ev->hops);
    } else if (what == "query.anycast") {
      open[ev->span_id] = trace.spans.size();
      add(*ev, Phase::kAnycast, ev->at, 0);
    } else if (what == "query.member_search") {
      if (const auto it = open.find(ev->parent_span_id); it != open.end()) {
        trace.spans[it->second].end = ev->at;
        trace.spans[it->second].hops = 1;
        open.erase(it);
      }
      add(*ev, Phase::kMemberSearch, ev->since, ev->hops);
    } else if (what == "query.slots_filled") {
      add(*ev, Phase::kSlotFill, ev->since, ev->hops);
    } else if (what == "query.commit") {
      add(*ev, Phase::kCommit, ev->since, ev->hops);
    } else if (what == "query.finish") {
      close_open(ev->at);
    } else if (is_incident(what)) {
      trace.events.push_back(TraceEvent{ev->at, ev->attempt, ev->what + kQueryPrefix.size()});
    }
  }
  // The terminus itself may have been lost to the log bound.
  if (meta.done) close_open(meta.finished);
  std::stable_sort(trace.spans.begin(), trace.spans.end(), [](const Span& a, const Span& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.slot < b.slot;
  });
  return trace;
}

/// Appends `,"key":value`.
void int_field(std::string& out, const char* key, std::int64_t value) {
  out += ',';
  json::append_key(out, key);
  json::append_int(out, value);
}

void bool_field(std::string& out, const char* key, bool value) {
  out += ',';
  json::append_key(out, key);
  out += value ? "true" : "false";
}

void write_trace_json(const QueryTrace& trace, std::string& out) {
  out += "{\"query_id\":";
  json::append_string(out, trace.query_id);
  int_field(out, "started_us", trace.started.as_micros());
  int_field(out, "finished_us", (trace.done ? trace.finished : trace.started).as_micros());
  bool_field(out, "done", trace.done);
  bool_field(out, "satisfied", trace.satisfied);
  int_field(out, "attempts", trace.attempts);
  if (!trace.complete) bool_field(out, "complete", false);
  out += ",\"spans\":[";
  json::Comma span_comma;
  for (const Span& span : trace.spans) {
    span_comma.next(out);
    out += "{\"phase\":";
    json::append_string(out, phase_name(span.phase));
    int_field(out, "attempt", span.attempt);
    int_field(out, "start_us", span.start.as_micros());
    int_field(out, "end_us", span.end.as_micros());
    int_field(out, "hops", span.hops);
    out += '}';
  }
  out += "],\"events\":[";
  json::Comma event_comma;
  for (const TraceEvent& event : trace.events) {
    event_comma.next(out);
    out += "{\"at_us\":";
    json::append_int(out, event.at.as_micros());
    int_field(out, "attempt", event.attempt);
    out += ",\"what\":";
    json::append_string(out, event.what);
    out += '}';
  }
  out += "]}";
}

}  // namespace

std::optional<QueryTrace> build_query_trace(const CausalLog& log, const std::string& query_id) {
  const std::uint64_t trace_id = log.trace_id_for(query_id);
  const TraceMeta* meta = log.find_trace(trace_id);
  if (meta == nullptr) return std::nullopt;
  return view_of(*meta, log.trace_events(trace_id));
}

void write_query_traces_json(const CausalLog& log, std::string& out) {
  // One pass groups the log by trace; each view then reads its own events.
  std::map<std::uint64_t, std::vector<const CausalEvent*>> by_trace;
  for (const CausalEvent& ev : log.events()) {
    if (ev.kind == CausalKind::kLocal) by_trace[ev.trace_id].push_back(&ev);
  }
  out += '[';
  json::Comma comma;
  for (const auto& [query_id, trace_id] : log.traces_by_query()) {
    const TraceMeta* meta = log.find_trace(trace_id);
    if (meta == nullptr) continue;
    comma.next(out);
    write_trace_json(view_of(*meta, by_trace[trace_id]), out);
  }
  out += ']';
}

}  // namespace rbay::obs
