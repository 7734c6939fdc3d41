#pragma once

// Measurement harness shared by the four workloads.
//
// A workload builds a warm federation (set-up), then runs numbered
// batches.  The first `core_batches()` batches are the *core*: a fixed
// amount of simulated work, so every sim-side number taken over it repeats
// exactly for a seed.  After the core the harness keeps running batches
// until `--seconds` of host time have passed; those only feed the host-time
// rates.  Everything here measures the program from outside: host time
// around the calls the benchmark makes into each layer, and the program's
// own counters read between calls.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace sim = rbay::sim;
namespace net = rbay::net;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file and registry snapshot to.
  std::string out_dir = ".";
};

/// Host seconds on the monotonic clock.
inline double host_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Current and peak resident set size of this process, in bytes.
std::int64_t rss_bytes();
std::int64_t peak_rss_bytes();

/// Benchmark-side spans: one per call the benchmark makes into a layer.
/// time() always returns the call's host duration; spans are kept (in
/// memory, written out at the end) only while recording is on.
class Spans {
 public:
  struct Span {
    const char* layer;
    const char* name;
    double start;
    double dur;
  };

  void record(bool on) { on_ = on; }
  [[nodiscard]] bool recording() const { return on_; }

  template <typename Fn>
  double time(const char* layer, const char* name, Fn&& fn) {
    const double t0 = host_now();
    fn();
    const double dt = host_now() - t0;
    if (on_) spans_.push_back(Span{layer, name, t0, dt});
    return dt;
  }

  /// Index to pass to layer_seconds() to count only later spans.
  [[nodiscard]] std::size_t mark() const { return spans_.size(); }
  /// Summed duration of the spans of `layer` recorded since `from`.
  [[nodiscard]] double layer_seconds(const std::string& layer, std::size_t from = 0) const;
  /// Chrome trace-event JSON ("X" slices, microseconds from the first span).
  [[nodiscard]] std::string chrome_json() const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

/// Sim-side counters read between batches.
struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
  double sim_s = 0.0;
  /// Federation-scope registry counters and the routed-hop histogram's
  /// running sum and count (traced runs only).
  std::map<std::string, std::uint64_t> counters;
  std::int64_t hop_sum = 0;
  std::uint64_t hop_count = 0;
};
Snapshot snapshot(sim::Engine& engine, net::Network& network);

/// Metrics, operation counts and failed output checks of one run.
class Result {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  /// A failed output check; the run reports correct=false.
  void error(std::string what);
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void provenance(const std::string& key, const std::string& value) { prov_[key] = value; }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return errors_.empty() && failed_ == 0; }
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> prov_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One workload instance = one federation.  The harness builds several
/// (set-up is timed as a median) and measures the last.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup() = 0;
  [[nodiscard]] virtual std::size_t nodes() const = 0;
  [[nodiscard]] virtual std::size_t core_batches() const = 0;
  /// Runs batch `index`; returns the operations it completed.
  virtual std::size_t batch(std::size_t index) = 0;
  /// Drains the simulation, checks outputs, and reports operation counts
  /// plus the workload's own end-to-end metrics.
  virtual void finish(Result& result) = 0;
  /// Per-layer metrics particular to the workload (traced runs only).
  virtual void layers(Result& result) = 0;

  virtual sim::Engine& engine() = 0;
  virtual net::Network& network() = 0;

  // Filled by the harness around the core.
  Snapshot core_start;
  Snapshot core_end;
  std::size_t core_ops = 0;
};

/// `spans` outlives the workload; `traced` attaches the obs registry.
using Factory = std::unique_ptr<Workload> (*)(const Options& options, Spans& spans,
                                              bool traced);

/// Runs `options.workload` end to end (--trace 0) or traced (--trace 1)
/// and prints the result as one JSON line.  Returns the exit code.
int run(const Options& options, Factory factory);

// --- small helpers shared by the workloads ---------------------------------

/// Percentile of `samples` (0 when empty).
double pct(const rbay::util::Samples& samples, double p);
double median(std::vector<double> values);

/// Counter delta over the core (0 when the counter is absent).
std::uint64_t core_delta(const Workload& w, const std::string& counter);
/// Counter delta per simulated second of the core.
double core_rate(const Workload& w, const std::string& counter);
double core_sim_seconds(const Workload& w);

}  // namespace perfbench
