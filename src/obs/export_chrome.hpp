#pragma once

// Chrome trace-event JSON export of the causal log (the "JSON Array with
// metadata" flavor: {"traceEvents": [...]}).  Loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing:
//
//   * one "process" per site   (pid = site id, named via "M" metadata)
//   * one "thread" per node    (tid = endpoint id)
//   * each delivered message is an "X" complete slice on the *sender's*
//     thread, ts = send time, dur = delivery delay, phase as category
//   * local operations, receipts, and drops are "i" instant events
//
// All timestamps are sim-time microseconds emitted as integers, and events
// are written in causal-log order, so same-seed runs export byte-identical
// files (pinned by a replay test).

#include <cstdint>
#include <map>
#include <string>

#include "obs/causal.hpp"

namespace rbay::obs {

struct ChromeEndpoint {
  std::uint32_t site = 0;
  std::string name;
};

/// Display names; anything missing falls back to "site-N" / "ep-N".
struct ChromeTraceLabels {
  std::map<std::uint32_t, std::string> sites;
  std::map<std::uint32_t, ChromeEndpoint> endpoints;
};

[[nodiscard]] std::string write_chrome_trace(const CausalLog& log,
                                             const ChromeTraceLabels& labels);

/// Minimal schema check for an exported file: top-level object with a
/// "traceEvents" array whose members each carry a one-char "ph", a string
/// "name", integer "pid"/"tid", and (for non-metadata events) an integer
/// "ts" ("dur" too for "X" slices).  Returns false and fills `error` on the
/// first violation.  Used by tools/trace_check and the export tests.
[[nodiscard]] bool validate_chrome_trace(const std::string& text, std::string& error);

}  // namespace rbay::obs
