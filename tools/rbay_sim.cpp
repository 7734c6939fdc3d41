// rbay_sim — run an RBAY federation scenario from a script file.
//
//   rbay_sim <scenario-file>                execute and print the report
//   rbay_sim --metrics <path> <scenario>    also dump a metrics JSON snapshot
//   rbay_sim --trace <path> <scenario>      also export a Chrome trace (Perfetto)
//   rbay_sim --timeseries <path> <scenario> also write the health-plane
//                                           time-series JSON (needs a
//                                           `timeseries` directive)
//   rbay_sim --help                         directive reference
//
// Scenarios build a federation, drive virtual time, issue queries, push
// admin commands, and assert outcomes (`expect ...`), so they double as
// executable integration tests.  See scenarios/*.rbay for examples.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "tools/scenario.hpp"

namespace {

constexpr const char* kHelp = R"(rbay_sim — scenario-driven RBAY federation simulator

usage: rbay_sim [--metrics <path>] [--trace <path>] [--timeseries <path>]
                [--threads N] <scenario-file>

  --metrics <path>   attach the observability registry and write its JSON
                     snapshot (counters, latency histograms, query traces)
                     to <path> after the run; '-' writes to stdout.
                     Deterministic: same scenario + seed => identical JSON.
  --trace <path>     record the causal message log and write it as Chrome
                     trace-event JSON to <path> after the run; '-' writes
                     to stdout.  Load in Perfetto (ui.perfetto.dev) or
                     chrome://tracing: one process per site, one thread
                     per node.  Deterministic: same scenario + seed =>
                     byte-identical file.
  --timeseries <path> write the per-window time-series JSON recorded by the
                     scenario's `timeseries` sampler (counter deltas, gauge
                     values, latency quantiles, alert log) to <path>; '-'
                     writes to stdout.  Requires a `timeseries` directive
                     in the scenario.  Deterministic: same scenario + seed
                     => byte-identical file.  See docs/HEALTH.md; render
                     with tools/rbay_top.
  --threads N        advance the site shards with N worker threads
                     (docs/PARALLEL_ENGINE.md); the output is the same at
                     every N.

directives (one per line; '#' comments; see tools/scenario.hpp for details):
  topology ec2 | single | uniform <sites> <intra_ms> <cross_ms>
  seed N | aggregation MS | heartbeat MS | max-attempts N
  tree <attr> <op> <literal>       tree-exists <attr>
  taxonomy-major <attr>            taxonomy-link <attr> <parent>
  nodes <site> <count>
  post <site|*> <attr> <literal>
  handler <site|*> <attr> <<EOF    (AAL policy body until EOF)
  monitor <site|*> <attr> walk <init> <min> <max> <step> <interval_ms>
  finalize
  run <duration>                   (500ms, 2s, ...)
  query <site> SELECT ...          release | commit
  admin-deliver <site> <tree-canonical> <attr> <payload>
  hide <site|*> <attr> | expose <site|*> <attr>
  fail <site> <i> | recover <site> <i>
  expect satisfied | denied | nodes N | count N
  print <text> | stats
)";

int usage(int code) {
  std::fputs(kHelp, code == 0 ? stdout : stderr);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_path;
  std::string metrics_path;
  std::string trace_path;
  std::string timeseries_path;
  unsigned threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") return usage(0);
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rbay_sim: --threads requires a count\n");
        return 2;
      }
      const int n = std::atoi(argv[++i]);
      if (n < 1) {
        std::fprintf(stderr, "rbay_sim: --threads requires a positive count\n");
        return 2;
      }
      threads = static_cast<unsigned>(n);
    } else if (arg == "--metrics") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rbay_sim: --metrics requires a path\n");
        return 2;
      }
      metrics_path = argv[++i];
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rbay_sim: --trace requires a path\n");
        return 2;
      }
      trace_path = argv[++i];
    } else if (arg == "--timeseries") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rbay_sim: --timeseries requires a path\n");
        return 2;
      }
      timeseries_path = argv[++i];
    } else if (scenario_path.empty()) {
      scenario_path = arg;
    } else {
      return usage(2);
    }
  }
  if (scenario_path.empty()) return usage(2);

  std::ifstream file{scenario_path};
  if (!file) {
    std::fprintf(stderr, "rbay_sim: cannot open '%s'\n", scenario_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << file.rdbuf();

  rbay::tools::ScenarioOptions options;
  options.metrics = !metrics_path.empty();
  options.trace = !trace_path.empty();
  options.engine.threads = threads;
  const auto result = rbay::tools::run_scenario(text.str(), options);
  if (!result.ok()) {
    std::fprintf(stderr, "rbay_sim: %s: %s\n", scenario_path.c_str(),
                 result.error().c_str());
    return 1;
  }
  const auto& report = result.value();
  for (const auto& line : report.output) std::printf("%s\n", line.c_str());
  std::printf("-- %d queries (%d satisfied), %d expectations passed\n", report.queries,
              report.queries_satisfied, report.expectations);

  if (!metrics_path.empty()) {
    if (metrics_path == "-") {
      std::fputs(report.metrics_json.c_str(), stdout);
    } else {
      std::ofstream out{metrics_path};
      if (!out) {
        std::fprintf(stderr, "rbay_sim: cannot write '%s'\n", metrics_path.c_str());
        return 2;
      }
      out << report.metrics_json;
      std::fprintf(stderr, "rbay_sim: metrics written to %s\n", metrics_path.c_str());
    }
  }
  if (!trace_path.empty()) {
    if (trace_path == "-") {
      std::fputs(report.trace_json.c_str(), stdout);
    } else {
      std::ofstream out{trace_path};
      if (!out) {
        std::fprintf(stderr, "rbay_sim: cannot write '%s'\n", trace_path.c_str());
        return 2;
      }
      out << report.trace_json;
      std::fprintf(stderr, "rbay_sim: trace written to %s\n", trace_path.c_str());
    }
  }
  if (!timeseries_path.empty()) {
    if (report.timeseries_json.empty()) {
      std::fprintf(stderr,
                   "rbay_sim: --timeseries given but the scenario has no "
                   "'timeseries' directive\n");
      return 2;
    }
    if (timeseries_path == "-") {
      std::fputs(report.timeseries_json.c_str(), stdout);
    } else {
      std::ofstream out{timeseries_path};
      if (!out) {
        std::fprintf(stderr, "rbay_sim: cannot write '%s'\n", timeseries_path.c_str());
        return 2;
      }
      out << report.timeseries_json;
      std::fprintf(stderr, "rbay_sim: time series written to %s\n", timeseries_path.c_str());
    }
  }
  return 0;
}
