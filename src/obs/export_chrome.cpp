#include "obs/export_chrome.hpp"

#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace rbay::obs {

namespace {

std::string site_label(const ChromeTraceLabels& labels, std::uint32_t site) {
  auto it = labels.sites.find(site);
  return it != labels.sites.end() ? it->second : "site-" + std::to_string(site);
}

std::string endpoint_label(const ChromeTraceLabels& labels, std::uint32_t ep) {
  auto it = labels.endpoints.find(ep);
  return it != labels.endpoints.end() ? it->second.name : "ep-" + std::to_string(ep);
}

void open_event(std::string& out, json::Comma& comma, const char* ph, std::string_view name,
                const char* cat, std::uint32_t pid, std::uint32_t tid) {
  comma.next(out);
  out += "\n{";
  json::append_key(out, "ph");
  json::append_string(out, ph);
  out += ',';
  json::append_key(out, "name");
  json::append_string(out, name);
  out += ',';
  json::append_key(out, "cat");
  json::append_string(out, cat);
  out += ',';
  json::append_key(out, "pid");
  json::append_uint(out, pid);
  out += ',';
  json::append_key(out, "tid");
  json::append_uint(out, tid);
}

void append_span_args(std::string& out, const CausalEvent& ev) {
  out += ',';
  json::append_key(out, "args");
  out += '{';
  json::append_key(out, "trace");
  json::append_uint(out, ev.trace_id);
  out += ',';
  json::append_key(out, "span");
  json::append_uint(out, ev.span_id);
  out += ',';
  json::append_key(out, "parent");
  json::append_uint(out, ev.parent_span_id);
  out += ',';
  json::append_key(out, "attempt");
  json::append_uint(out, ev.attempt);
  out += '}';
}

/// An "i" instant event on the event's thread, named `prefix` + its name.
void instant_event(std::string& out, json::Comma& comma, const char* prefix,
                   const CausalEvent& ev) {
  open_event(out, comma, "i", std::string(prefix) + ev.what, phase_label(ev.phase), ev.site,
             ev.endpoint);
  out += ",\"s\":\"t\",";
  json::append_key(out, "ts");
  json::append_int(out, ev.at.as_micros());
  append_span_args(out, ev);
  out += '}';
}

}  // namespace

std::string write_chrome_trace(const CausalLog& log, const ChromeTraceLabels& labels) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  json::Comma comma;

  // Metadata: name every site (process) and endpoint (thread) that either
  // the labels or the log mention, in sorted order for byte stability.
  std::set<std::uint32_t> sites;
  std::set<std::uint32_t> endpoints;
  for (const auto& [site, name] : labels.sites) sites.insert(site);
  for (const auto& [ep, info] : labels.endpoints) endpoints.insert(ep);
  for (const CausalEvent& ev : log.events()) {
    sites.insert(ev.site);
    endpoints.insert(ev.endpoint);
  }
  for (const std::uint32_t site : sites) {
    open_event(out, comma, "M", "process_name", "__metadata", site, 0);
    out += ",\"args\":{";
    json::append_key(out, "name");
    json::append_string(out, site_label(labels, site));
    out += "}}";
  }
  for (const std::uint32_t ep : endpoints) {
    auto it = labels.endpoints.find(ep);
    const std::uint32_t pid = it != labels.endpoints.end() ? it->second.site : 0;
    open_event(out, comma, "M", "thread_name", "__metadata", pid, ep);
    out += ",\"args\":{";
    json::append_key(out, "name");
    json::append_string(out, endpoint_label(labels, ep));
    out += "}}";
  }

  // Pair each send with its delivery so the slice duration is known.
  std::map<std::uint64_t, const CausalEvent*> recv_by_span;
  for (const CausalEvent& ev : log.events()) {
    if (ev.kind == CausalKind::kRecv) recv_by_span.emplace(ev.span_id, &ev);
  }

  // A delivered send is a slice; every other event is an instant named by
  // its kind: an undelivered send, a receipt, a drop, or a bare local point.
  constexpr const char* kInstantPrefix[] = {"send:", "recv:", "drop:", ""};
  for (const CausalEvent& ev : log.events()) {
    const auto recv =
        ev.kind == CausalKind::kSend ? recv_by_span.find(ev.span_id) : recv_by_span.end();
    if (recv == recv_by_span.end()) {
      instant_event(out, comma, kInstantPrefix[static_cast<int>(ev.kind)], ev);
      continue;
    }
    open_event(out, comma, "X", ev.what, phase_label(ev.phase), ev.site, ev.endpoint);
    out += ',';
    json::append_key(out, "ts");
    json::append_int(out, ev.at.as_micros());
    out += ',';
    json::append_key(out, "dur");
    json::append_int(out, (recv->second->at - ev.at).as_micros());
    append_span_args(out, ev);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

// --- validation -----------------------------------------------------------

namespace {

bool check_int_field(const json::Value& ev, const char* key, std::size_t index,
                     std::string& error) {
  const json::Value* v = ev.find(key);
  if (v == nullptr || v->kind != json::Value::Kind::Number || !v->integral) {
    error = "traceEvents[" + std::to_string(index) + "]: missing integer \"" + key + "\"";
    return false;
  }
  return true;
}

}  // namespace

bool validate_chrome_trace(const std::string& text, std::string& error) {
  json::Value root;
  if (!json::parse(text, root, error)) return false;
  if (root.kind != json::Value::Kind::Object) {
    error = "top level is not an object";
    return false;
  }
  const json::Value* events = root.find("traceEvents");
  if (events == nullptr || events->kind != json::Value::Kind::Array) {
    error = "missing \"traceEvents\" array";
    return false;
  }
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const json::Value& ev = events->items[i];
    if (ev.kind != json::Value::Kind::Object) {
      error = "traceEvents[" + std::to_string(i) + "] is not an object";
      return false;
    }
    const json::Value* ph = ev.find("ph");
    if (ph == nullptr || ph->kind != json::Value::Kind::String || ph->string.size() != 1) {
      error = "traceEvents[" + std::to_string(i) + "]: missing one-char \"ph\"";
      return false;
    }
    const json::Value* name = ev.find("name");
    if (name == nullptr || name->kind != json::Value::Kind::String || name->string.empty()) {
      error = "traceEvents[" + std::to_string(i) + "]: missing string \"name\"";
      return false;
    }
    if (!check_int_field(ev, "pid", i, error)) return false;
    if (!check_int_field(ev, "tid", i, error)) return false;
    if (ph->string == "M") continue;  // metadata needs no timestamp
    if (!check_int_field(ev, "ts", i, error)) return false;
    if (ph->string == "X" && !check_int_field(ev, "dur", i, error)) return false;
  }
  return true;
}

}  // namespace rbay::obs
