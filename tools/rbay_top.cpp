// rbay_top — deterministic text dashboard over the health-plane
// time-series JSON (docs/HEALTH.md).
//
//   rbay_sim --timeseries ts.json scenarios/health_watch.rbay
//   rbay_top ts.json
//
// Renders what a `top` for the federation would show: the alert log, the
// federation counter rates (last window vs whole run), gauge levels,
// latency quantiles, and a per-site activity table — all computed from
// the JSON alone, no simulator state.  Output is byte-deterministic for a
// given input file (integer math only), so CI can archive and diff it.
// Exit 0 on success, 1 on malformed input, 2 on usage/IO errors.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

using JsonValue = rbay::obs::json::Value;

// --- rendering --------------------------------------------------------------

std::string fmt_time_us(std::int64_t us) {
  // Fixed "S.mmm s" form, integer math only.
  const std::int64_t ms = us / 1000;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld.%03llds", static_cast<long long>(ms / 1000),
                static_cast<long long>(ms % 1000));
  return buf;
}

void sum_counters(const JsonValue& scope_window, std::map<std::string, std::int64_t>& totals) {
  const auto* counters = scope_window.find("counters");
  if (counters == nullptr) return;
  for (const auto& [name, v] : counters->fields) totals[name] += v.as_int();
}

int render(const JsonValue& root) {
  const auto* interval = root.find("interval_us");
  const auto* windows = root.find("windows");
  const auto* alerts = root.find("alerts");
  if (interval == nullptr || windows == nullptr || alerts == nullptr) {
    std::fprintf(stderr, "rbay_top: not a time-series JSON (missing fields)\n");
    return 1;
  }
  const auto* open = root.find("alerts_open");
  const auto* dropped = root.find("dropped_windows");

  std::int64_t last_t = 0;
  if (!windows->items.empty()) {
    if (const auto* t = windows->items.back().find("t_us")) last_t = t->as_int();
  }
  std::printf("rbay_top — federation health @ t=%s (%zu windows × %lldms%s)\n",
              fmt_time_us(last_t).c_str(), windows->items.size(),
              static_cast<long long>(interval->as_int() / 1000),
              dropped != nullptr && dropped->as_int() > 0
                  ? (", " + std::to_string(dropped->as_int()) + " dropped").c_str()
                  : "");

  std::printf("\nALERTS (%zu transitions, %lld open)\n", alerts->items.size(),
              static_cast<long long>(open == nullptr ? 0 : open->as_int()));
  for (const auto& a : alerts->items) {
    const auto* rule = a.find("rule");
    const auto* is_open = a.find("open");
    const auto* t = a.find("t_us");
    const auto* vm = a.find("value_milli");
    if (rule == nullptr || is_open == nullptr || t == nullptr || vm == nullptr) continue;
    const std::int64_t milli = vm->as_int();
    std::printf("  t=%-10s %-5s %-24s value=%lld.%03lld\n", fmt_time_us(t->as_int()).c_str(),
                is_open->boolean ? "OPEN" : "close", rule->string.c_str(),
                static_cast<long long>(milli / 1000),
                static_cast<long long>(milli < 0 ? -milli % 1000 : milli % 1000));
  }

  // Federation counters: run totals + last-window deltas.
  std::map<std::string, std::int64_t> totals;
  std::map<std::string, std::int64_t> last_delta;
  const JsonValue* last_fed = nullptr;
  for (const auto& w : windows->items) {
    if (const auto* fed = w.find("federation")) {
      sum_counters(*fed, totals);
      last_fed = fed;
    }
  }
  if (last_fed != nullptr) sum_counters(*last_fed, last_delta);

  std::printf("\nFEDERATION COUNTERS%44s\n", "total   last-window");
  for (const auto& [name, total] : totals) {
    const auto it = last_delta.find(name);
    std::printf("  %-48s %10lld   %11lld\n", name.c_str(), static_cast<long long>(total),
                static_cast<long long>(it == last_delta.end() ? 0 : it->second));
  }

  if (last_fed != nullptr) {
    if (const auto* gauges = last_fed->find("gauges"); gauges != nullptr) {
      std::printf("\nFEDERATION GAUGES (last window)\n");
      for (const auto& [name, v] : gauges->fields) {
        std::printf("  %-48s %10lld\n", name.c_str(), static_cast<long long>(v.as_int()));
      }
    }
    if (const auto* lat = last_fed->find("latencies"); lat != nullptr) {
      std::printf("\nFEDERATION LATENCIES (cumulative)%29s\n", "count  p50us  p99us  maxus");
      for (const auto& [name, v] : lat->fields) {
        const auto* count = v.find("count");
        const auto* p50 = v.find("p50_us");
        const auto* p99 = v.find("p99_us");
        const auto* max = v.find("max_us");
        std::printf("  %-36s %10lld %6lld %6lld %6lld\n", name.c_str(),
                    static_cast<long long>(count == nullptr ? 0 : count->as_int()),
                    static_cast<long long>(p50 == nullptr ? 0 : p50->as_int()),
                    static_cast<long long>(p99 == nullptr ? 0 : p99->as_int()),
                    static_cast<long long>(max == nullptr ? 0 : max->as_int()));
      }
    }
  }

  // Per-site totals across the whole run.
  std::map<std::string, std::map<std::string, std::int64_t>> site_totals;
  for (const auto& w : windows->items) {
    const auto* sites = w.find("sites");
    if (sites == nullptr) continue;
    for (const auto& [site, sw] : sites->fields) sum_counters(sw, site_totals[site]);
  }
  if (!site_totals.empty()) {
    std::printf("\nSITES (run totals)\n");
    for (const auto& [site, counters] : site_totals) {
      std::printf("  site %s\n", site.c_str());
      for (const auto& [name, total] : counters) {
        std::printf("    %-46s %10lld\n", name.c_str(), static_cast<long long>(total));
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || std::string(argv[1]) == "--help") {
    std::fprintf(stderr, "usage: rbay_top <timeseries.json|->\n");
    return 2;
  }
  const std::string path = argv[1];
  std::ostringstream text;
  if (path == "-") {
    text << std::cin.rdbuf();
  } else {
    std::ifstream file{path};
    if (!file) {
      std::fprintf(stderr, "rbay_top: cannot open '%s'\n", path.c_str());
      return 2;
    }
    text << file.rdbuf();
  }

  JsonValue root;
  std::string error;
  if (!rbay::obs::json::parse(text.str(), root, error)) {
    std::fprintf(stderr, "rbay_top: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  return render(root);
}
