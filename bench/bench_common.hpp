#pragma once

// Shared helpers for the benchmark harness.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (§IV) and prints the same rows/series the paper reports.
// Latencies are VIRTUAL time from the discrete-event engine (driven by the
// Table II RTT matrix), so the shapes — who wins, growth rates, plateaus —
// are comparable to the paper even though the absolute testbed differs.
// All benches accept `--seed N` and default to the documented workload
// scale; `--small` shrinks the workload for smoke runs.  `--help` prints
// the flags, and an unknown flag exits with status 2.  Every bench also
// accepts the uniform observability flags:
//
//   --metrics <path>     dump the registry's JSON snapshot ('-' = stdout)
//   --trace <path>       Chrome trace-event export of the causal log
//   --timeseries <path>  per-window health-plane time series (250 ms
//                        windows — docs/HEALTH.md; render with rbay_top)
//
// Benches that sweep several configurations instrument their *last*
// (full-scale) cluster — the one whose numbers headline the figure.  Two
// flags are accepted only by the benches that read them (`ExtraFlags`):
// `--json <path>` (machine-readable result summary, integer microseconds —
// CI archives these as BENCH_<id>.json) and fig8a's `--threads N`.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>

#include "core/cluster.hpp"
#include "obs/export_chrome.hpp"
#include "obs/json.hpp"
#include "obs/timeseries.hpp"
#include "util/stats.hpp"

namespace rbay::bench {

/// The bench-specific flags a bench reads.  Any other bench rejects them
/// like an unknown flag, so they never go silently unused.
struct ExtraFlags {
  bool json = false;
  bool threads = false;
};

struct Args {
  std::uint64_t seed = 42;
  bool small = false;
  int threads = 0;              // 0 = no parallel-engine sweep (fig8a)
  std::string metrics_path;     // empty = observability disabled
  std::string json_path;        // empty = no machine-readable summary
  std::string trace_path;       // empty = no Chrome trace export
  std::string timeseries_path;  // empty = no health-plane sampling

  /// Parses the uniform flags plus those in `extra`.  `--help` prints the
  /// usage line and exits 0; an unknown flag, or one missing its value,
  /// prints it to stderr and exits 2.
  static Args parse(int argc, char** argv, ExtraFlags extra = {}) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      const bool has_value = i + 1 < argc;
      if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
        args.seed = std::strtoull(argv[++i], nullptr, 10);
      } else if (std::strcmp(argv[i], "--small") == 0) {
        args.small = true;
      } else if (extra.threads && std::strcmp(argv[i], "--threads") == 0 && has_value) {
        args.threads = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--metrics") == 0 && has_value) {
        args.metrics_path = argv[++i];
      } else if (extra.json && std::strcmp(argv[i], "--json") == 0 && has_value) {
        args.json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
        args.trace_path = argv[++i];
      } else if (std::strcmp(argv[i], "--timeseries") == 0 && has_value) {
        args.timeseries_path = argv[++i];
      } else if (std::strcmp(argv[i], "--help") == 0) {
        usage(stdout, argv[0], extra);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unknown or incomplete option '%s'\n", argv[0], argv[i]);
        usage(stderr, argv[0], extra);
        std::exit(2);
      }
    }
    return args;
  }

  static void usage(std::FILE* out, const char* program, ExtraFlags extra) {
    std::fprintf(out,
                 "usage: %s [--seed N] [--small]%s%s "
                 "[--metrics PATH] [--trace PATH] [--timeseries PATH]  (PATH '-' = stdout)\n",
                 program, extra.threads ? " [--threads N]" : "",
                 extra.json ? " [--json PATH]" : "");
  }

  /// Tracing and time-series sampling ride on the obs registry, so either
  /// flag implies metrics.
  [[nodiscard]] bool wants_metrics() const {
    return !metrics_path.empty() || !trace_path.empty() || !timeseries_path.empty();
  }
};

/// Writes one bench output file: `text` to `path` ('-' = stdout), noting
/// "<what> written to <path>" on stderr.  No-op on an empty path.
inline void write_output(const std::string& path, const std::string& text, const char* what) {
  if (path.empty()) return;
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return;
  }
  std::ofstream out{path};
  out << text;
  std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
}

/// Writes the cluster's metrics snapshot to `path` ('-' = stdout).
/// No-op when the cluster was built without metrics.
inline void dump_metrics(core::RBayCluster& cluster, const std::string& path) {
  if (path.empty() || cluster.metrics() == nullptr) return;
  write_output(path, cluster.metrics()->to_json(), "metrics");
}

/// Writes the cluster's causal log as Chrome trace-event JSON to `path`
/// ('-' = stdout).  No-op when the cluster was built without metrics.
inline void dump_trace(core::RBayCluster& cluster, const std::string& path) {
  if (path.empty() || cluster.metrics() == nullptr) return;
  write_output(path,
               obs::write_chrome_trace(cluster.metrics()->causal_log(), cluster.chrome_labels()),
               "trace");
}

/// Starts the health-plane sampler on the cluster when --timeseries was
/// given (250 ms windows — coarse enough for multi-minute bench runs).
/// Returns nullptr when sampling is off or the cluster has no registry.
inline std::unique_ptr<obs::TimeSeries> start_timeseries(core::RBayCluster& cluster,
                                                         const Args& args) {
  if (args.timeseries_path.empty() || cluster.metrics() == nullptr) return nullptr;
  auto series = std::make_unique<obs::TimeSeries>(cluster.engine(), *cluster.metrics(),
                                                  util::SimTime::millis(250));
  series->start();
  return series;
}

/// Stops the sampler, takes a final window, and writes the time-series
/// JSON to `path` ('-' = stdout).  No-op when the sampler is null.
inline void dump_timeseries(obs::TimeSeries* series, const std::string& path) {
  if (series == nullptr || path.empty()) return;
  series->stop();
  series->sample();
  write_output(path, series->to_json(), "time series");
}

/// The uniform end-of-run export bundle: metrics snapshot, Chrome trace,
/// and time series, each gated on its own flag.  Call once on the bench's
/// instrumented cluster just before it is destroyed.
inline void dump_observability(core::RBayCluster& cluster, obs::TimeSeries* series,
                               const Args& args) {
  dump_timeseries(series, args.timeseries_path);
  dump_metrics(cluster, args.metrics_path);
  dump_trace(cluster, args.trace_path);
}

/// For wall-clock-only benches with no simulation underneath (AAL
/// interpreter cost, store memory footprints): tell the user the obs flags
/// have nothing to observe instead of silently ignoring them.
inline void warn_no_sim(const Args& args) {
  if (args.wants_metrics()) {
    std::fprintf(stderr,
                 "note: this bench runs no simulation; "
                 "--metrics/--trace/--timeseries produce no output\n");
  }
}

/// Observability rig for benches that drive a raw Engine/Overlay with no
/// RBayCluster (fig8a, fig11, Table II): owns the registry, attaches it to
/// the engine, and starts the sampler when --timeseries was given.  Build
/// it after the Network/Overlay: the sampler schedules its first event,
/// and the engine fixes its shards when the network is built.  Call dump()
/// after the measured run; the rig detaches from the engine on destruction.
class EngineObs {
 public:
  EngineObs(sim::Engine& engine, const Args& args) : engine_(engine), args_(args) {
    if (!args.wants_metrics()) return;
    registry_ = std::make_unique<obs::Registry>();
    engine.set_metrics(registry_.get());
    if (!args.timeseries_path.empty()) {
      series_ = std::make_unique<obs::TimeSeries>(engine, *registry_,
                                                  util::SimTime::millis(250));
      series_->start();
    }
  }
  EngineObs(const EngineObs&) = delete;
  EngineObs& operator=(const EngineObs&) = delete;
  ~EngineObs() {
    series_.reset();
    if (registry_ != nullptr) engine_.set_metrics(nullptr);
  }

  void dump() {
    if (registry_ == nullptr) return;
    dump_timeseries(series_.get(), args_.timeseries_path);
    write_output(args_.metrics_path, registry_->to_json(), "metrics");
    if (!args_.trace_path.empty()) {
      // No cluster directory here, so site/endpoint labels fall back to
      // the exporter's "site-N" / "ep-N" defaults.
      write_output(args_.trace_path, obs::write_chrome_trace(registry_->causal_log(), {}),
                   "trace");
    }
  }

 private:
  sim::Engine& engine_;
  const Args args_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::TimeSeries> series_;
};

/// Machine-readable result summary for the figure benches — the file CI
/// archives as BENCH_<id>.json.  Integer microseconds of VIRTUAL time
/// only, so same-seed runs produce byte-identical files.
struct BenchJson {
  std::string bench;  // e.g. "fig9"
  std::uint64_t seed = 0;
  std::size_t sites = 0;
  std::size_t nodes = 0;

  struct Series {
    std::string origin;
    std::size_t sites_queried = 0;
    int queries = 0;
    int satisfied = 0;
    std::int64_t p50_us = 0;
    std::int64_t p99_us = 0;
  };
  std::vector<Series> series;

  void add(const std::string& origin, std::size_t sites_queried, int queries,
           int satisfied, const util::Samples& latency_us) {
    series.push_back(Series{origin, sites_queried, queries, satisfied,
                            static_cast<std::int64_t>(latency_us.percentile(50)),
                            static_cast<std::int64_t>(latency_us.percentile(99))});
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{";
    obs::json::append_key(out, "bench");
    obs::json::append_string(out, bench);
    out += ",";
    obs::json::append_key(out, "seed");
    obs::json::append_uint(out, seed);
    out += ",";
    obs::json::append_key(out, "sites");
    obs::json::append_uint(out, sites);
    out += ",";
    obs::json::append_key(out, "nodes");
    obs::json::append_uint(out, nodes);
    out += ",";
    obs::json::append_key(out, "series");
    out += "[";
    obs::json::Comma comma;
    for (const auto& s : series) {
      comma.next(out);
      out += "{";
      obs::json::append_key(out, "origin");
      obs::json::append_string(out, s.origin);
      out += ",";
      obs::json::append_key(out, "sites_queried");
      obs::json::append_uint(out, s.sites_queried);
      out += ",";
      obs::json::append_key(out, "queries");
      obs::json::append_int(out, s.queries);
      out += ",";
      obs::json::append_key(out, "satisfied");
      obs::json::append_int(out, s.satisfied);
      out += ",";
      obs::json::append_key(out, "p50_us");
      obs::json::append_int(out, s.p50_us);
      out += ",";
      obs::json::append_key(out, "p99_us");
      obs::json::append_int(out, s.p99_us);
      out += "}";
    }
    out += "]}\n";
    return out;
  }

  /// Writes the summary to `path` ('-' = stdout); no-op on empty path.
  void dump(const std::string& path) const {
    if (path.empty()) return;
    write_output(path, to_json(), "bench summary");
  }
};

inline void print_header(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

/// The 23 EC2 instance types the paper simulates (§IV.A footnote).
inline const std::vector<std::string>& instance_types() {
  static const std::vector<std::string> kTypes = {
      "t2.micro",   "t2.small",   "t2.medium",  "m3.medium",  "m3.large",  "m3.xlarge",
      "m3.2xlarge", "c3.large",   "c3.xlarge",  "c3.2xlarge", "c3.4xlarge", "c3.8xlarge",
      "g2.2xlarge", "r3.large",   "r3.xlarge",  "r3.2xlarge", "r3.4xlarge", "r3.8xlarge",
      "i2.xlarge",  "i2.2xlarge", "i2.4xlarge", "i2.8xlarge", "hs1.8xlarge"};
  return kTypes;
}

/// Gaussian-weighted choice over instance types: center types get more
/// members than edge types ("the tree size follows a Gaussian
/// distribution", §IV.A).
inline const std::string& gaussian_instance_type(util::Rng& rng) {
  const auto& types = instance_types();
  const double center = static_cast<double>(types.size() - 1) / 2.0;
  for (;;) {
    const double g = rng.gaussian(center, static_cast<double>(types.size()) / 5.0);
    const auto idx = static_cast<long>(g + 0.5);
    if (idx >= 0 && idx < static_cast<long>(types.size())) {
      return types[static_cast<std::size_t>(idx)];
    }
  }
}

/// Builds the paper's evaluation federation: 8 EC2 sites, `per_site` nodes
/// each, one aggregation tree per instance type per site, each node given
/// a Gaussian-chosen instance type plus utilization/GPU attributes and the
/// password onGet handler used during §IV runs.
struct EvalFederation {
  core::RBayCluster cluster;

  /// `tune` runs on the assembled ClusterConfig before the cluster is
  /// built — the hook the throughput bench uses to flip query-plane knobs
  /// (admission window, cache TTL, probe batching) per configuration.
  EvalFederation(std::size_t per_site, std::uint64_t seed, bool with_password = true,
                 bool metrics = false,
                 const std::function<void(core::ClusterConfig&)>& tune = {})
      : cluster([&] {
          auto config = make_config(seed, metrics);
          if (tune) tune(config);
          return config;
        }()) {
    for (const auto& type : instance_types()) {
      cluster.add_tree_spec(core::TreeSpec::from_predicate(
          {"instance", query::CompareOp::Eq, store::AttributeValue{type}}));
    }
    cluster.add_tree_spec(core::TreeSpec::from_predicate(
        {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}}));
    cluster.add_tree_spec(core::TreeSpec::from_predicate(
        {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
    cluster.populate(per_site);

    // "The onGet handler is invoked for each query to return the NodeId
    // list, only checking if the password matches or not" (§IV.A).
    const std::string handler = R"(
AA = {Password = "rbay"}
function onGet(caller, payload)
  if payload == AA.Password then return true end
  return nil
end)";
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      auto& rng = cluster.engine().rng();
      auto& node = cluster.node(i);
      (void)node.post("instance", gaussian_instance_type(rng),
                      with_password ? handler : std::string{});
      (void)node.post("CPU_utilization", rng.uniform_double());
      (void)node.post("GPU", rng.chance(0.3));
      (void)node.post("Matlab", rng.chance(0.5) ? "9.0" : "8.0");
    }
    cluster.finalize();
    cluster.run_for(util::SimTime::seconds(3));  // aggregation warm-up
  }

  static core::ClusterConfig make_config(std::uint64_t seed, bool metrics = false) {
    core::ClusterConfig config;
    config.topology = net::Topology::ec2_eight_sites();
    config.seed = seed;
    config.node.scribe.aggregation_interval = util::SimTime::millis(250);
    config.node.query.max_attempts = 4;
    config.metrics = metrics;
    return config;
  }

  /// Runs one composite query and returns the outcome (releases holds).
  core::QueryOutcome run_query(std::size_t from, const std::string& sql) {
    core::QueryOutcome outcome;
    cluster.node(from).query().execute_sql(sql,
                                           [&](const core::QueryOutcome& o) { outcome = o; });
    cluster.run();
    if (outcome.satisfied) {
      cluster.node(from).query().release(outcome);
      cluster.run();
    }
    return outcome;
  }
};

}  // namespace rbay::bench
