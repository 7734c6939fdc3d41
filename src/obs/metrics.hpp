#pragma once

// Observability registry: named counters, gauges, and HDR-style latency
// histograms, organized into scopes — one federation-wide, one per site,
// one per node — plus the causal log that query traces are built from.
//
// Design rules (they are what make the deterministic-replay test possible):
//   * every timestamp and latency is sim-time from the engine's virtual
//     clock — wall time never enters;
//   * every container is a std::map, so iteration (and therefore JSON
//     output) is ordered and two same-seed runs serialize byte-identically;
//   * to_json() emits integers only (counts, microseconds) — no
//     floating-point formatting;
//   * "disabled" means no Registry is attached to the engine: instrumented
//     code guards on a null pointer and pays nothing else.  std::map node
//     stability lets hot paths cache Counter*/Gauge* handles across calls.
//
// Sharded-engine rules (docs/PARALLEL_ENGINE.md).  Metric writes arrive
// concurrently from per-site shards, so every instrument is
// *merge-on-snapshot*:
//   * Counter is a relaxed atomic — increments commute, totals are exact;
//   * Gauge and LatencyHisto keep one cell per execution slot
//     (obs/exec_slot.hpp).  Each shard writes only its own cell; readers
//     merge.  Histogram merge is a commutative sum; gauge merge picks the
//     write with the lexicographically greatest (sim-time, slot) stamp —
//     a pure function of the deterministic per-shard event sequences, so
//     Registry::to_json() is byte-identical at any worker-thread count.
//   * Scope/Registry lookup maps take a mutex (lookups that create);
//     cached handles keep hot paths lock-free.  Ordered iteration and
//     to_json() are snapshot-time operations: they run at barriers or
//     after the run, when no shard is writing.
// An engine without a Network never leaves slot 0, so every structure
// stays in its slot-0 cell.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/causal.hpp"
#include "obs/exec_slot.hpp"
#include "util/sim_time.hpp"

namespace rbay::obs {

namespace detail {

/// Lazily-allocated per-slot cells for slots 1..kMaxExecSlots-1 (slot 0 is
/// inline in the instrument, so control-only writers never allocate).  The
/// block is installed with a CAS: concurrent first writers race benignly.
template <typename CellT>
struct CellBlock {
  CellT cells[kMaxExecSlots - 1];
};

template <typename CellT>
CellT& slot_cell(CellT& cell0, std::atomic<CellBlock<CellT>*>& extra) {
  const std::uint32_t slot = exec_slot().index;
  if (slot == 0) return cell0;
  CellBlock<CellT>* b = extra.load(std::memory_order_acquire);
  if (b == nullptr) {
    auto* fresh = new CellBlock<CellT>;
    if (extra.compare_exchange_strong(b, fresh, std::memory_order_acq_rel)) {
      b = fresh;
    } else {
      delete fresh;
    }
  }
  return b->cells[slot - 1];
}

}  // namespace detail

/// Monotonically increasing event count.  Relaxed atomic: shard-concurrent
/// increments commute, so totals are exact and thread-count independent.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t by = 1) { value_.fetch_add(by, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (queue depth, live reservations).  Tracks the high
/// water mark alongside the last value.  Each execution slot writes its own stamped cell; value() is the write with
/// the greatest (sim-time, slot) stamp and max() the high water across
/// cells — both pure functions of the deterministic per-shard sequences.
class Gauge {
 public:
  Gauge() = default;
  ~Gauge() { delete extra_.load(std::memory_order_relaxed); }
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) {
    Cell& c = detail::slot_cell(cell0_, extra_);
    c.value = v;
    if (v > c.max) c.max = v;
    c.stamp_us = exec_slot().time_us;
    c.written = true;
  }
  void add(std::int64_t delta) {
    Cell& c = detail::slot_cell(cell0_, extra_);
    set(c.value + delta);
  }
  [[nodiscard]] std::int64_t value() const {
    std::int64_t best = 0;
    std::int64_t best_stamp = -1;
    // Ascending slot order, ties won by the later slot: the one-worker
    // schedule processes higher shards later within an equal-time window.
    scan([&](const Cell& c) {
      if (c.written && c.stamp_us >= best_stamp) {
        best = c.value;
        best_stamp = c.stamp_us;
      }
    });
    return best;
  }
  [[nodiscard]] std::int64_t max() const {
    std::int64_t m = 0;
    scan([&](const Cell& c) {
      if (c.max > m) m = c.max;
    });
    return m;
  }

 private:
  struct Cell {
    std::int64_t value = 0;
    std::int64_t max = 0;
    std::int64_t stamp_us = -1;
    bool written = false;
  };

  template <typename Fn>
  void scan(Fn&& fn) const {
    fn(cell0_);
    if (const auto* b = extra_.load(std::memory_order_acquire)) {
      for (const Cell& c : b->cells) fn(c);
    }
  }

  Cell cell0_;
  std::atomic<detail::CellBlock<Cell>*> extra_{nullptr};
};

/// HDR-style log-linear histogram of non-negative microsecond values: each
/// power-of-two range is split into 2^kSubBits linear sub-buckets, giving
/// ~6% relative resolution over the full int64 range with a small sparse
/// footprint.  Percentiles are reported as the midpoint of the selected
/// bucket, clamped to the observed [min, max].  Each execution slot
/// records into its own cell and readers merge — a
/// commutative sum, so snapshots are thread-count independent.
class LatencyHisto {
 public:
  LatencyHisto() = default;
  ~LatencyHisto() { delete extra_.load(std::memory_order_relaxed); }
  LatencyHisto(const LatencyHisto&) = delete;
  LatencyHisto& operator=(const LatencyHisto&) = delete;

  void add(util::SimTime latency) { add_us(latency.as_micros()); }
  void add_us(std::int64_t us);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::int64_t sum_us() const;
  [[nodiscard]] std::int64_t min_us() const;
  [[nodiscard]] std::int64_t max_us() const;

  /// Nearest-rank percentile, p in [0, 100].
  [[nodiscard]] std::int64_t percentile_us(double p) const;

  void write_json(std::string& out) const;

 private:
  static constexpr int kSubBits = 4;

  struct Cell {
    std::map<int, std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::int64_t sum_us = 0;
    std::int64_t min_us = 0;
    std::int64_t max_us = 0;
  };

  static int bucket_index(std::uint64_t v);
  static std::int64_t bucket_mid(int index);
  static std::int64_t percentile_of(const Cell& cell, double p);
  static void write_json_of(const Cell& cell, std::string& out);

  /// Sum-merge of all cells; only called when the extra block exists.
  [[nodiscard]] Cell merged() const;

  Cell cell0_;
  std::atomic<detail::CellBlock<Cell>*> extra_{nullptr};
};

/// A namespace of metrics.  Lookup creates on first use; references stay
/// valid for the registry's lifetime (std::map node stability).  Creating
/// lookups lock a mutex (shards may first-touch a metric mid-window);
/// ordered iteration is snapshot-time only.
class Scope {
 public:
  Scope() = default;
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Counter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    return counters_[name];
  }
  Gauge& gauge(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    return gauges_[name];
  }
  LatencyHisto& latency(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    return latencies_[name];
  }

  /// Read-only lookup that never creates (the time-series sampler and the
  /// scenario `expect metric` directive must observe without perturbing
  /// the snapshot).  Returns nullptr when the metric does not exist.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const LatencyHisto* find_latency(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = latencies_.find(name);
    return it == latencies_.end() ? nullptr : &it->second;
  }

  /// Ordered read-only iteration (the time-series sampler walks these).
  /// Snapshot-time only: no writer may be concurrent.
  [[nodiscard]] const std::map<std::string, Counter>& counters() const { return counters_; }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  [[nodiscard]] const std::map<std::string, LatencyHisto>& latencies() const {
    return latencies_;
  }

  [[nodiscard]] bool empty() const {
    std::lock_guard<std::mutex> lk(mu_);
    return counters_.empty() && gauges_.empty() && latencies_.empty();
  }

  void write_json(std::string& out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHisto> latencies_;
};

/// The root of the observability tree: federation scope, per-site scopes
/// (keyed by site id), per-node scopes (keyed by node id hex), and the
/// causal log.  Attach to a sim::Engine with engine.set_metrics(&reg);
/// detached (the default) every instrumented path is a null-check no-op.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Scope& fed() { return fed_; }
  Scope& site(std::uint32_t site_id) {
    std::lock_guard<std::mutex> lk(mu_);
    return sites_[site_id];
  }
  Scope& node(const std::string& node_key) {
    std::lock_guard<std::mutex> lk(mu_);
    return nodes_[node_key];
  }
  [[nodiscard]] const Scope& fed() const { return fed_; }
  /// Read-only view of the per-site scopes (never creates; snapshot-time).
  [[nodiscard]] const std::map<std::uint32_t, Scope>& sites() const { return sites_; }

  /// Causal tracing log.  The mutable accessor lazily binds the trace.*
  /// counters into the federation scope, so a registry whose causal log is
  /// never touched keeps a counter-free snapshot.
  CausalLog& causal() {
    std::lock_guard<std::mutex> lk(mu_);
    if (!causal_bound_) {
      causal_.bind_counters(&fed_.counter("trace.events"), &fed_.counter("trace.dropped"),
                            &fed_.counter("trace.flight_overwrites"));
      causal_bound_ = true;
    }
    return causal_;
  }
  [[nodiscard]] const CausalLog& causal_log() const { return causal_; }

  /// Declares how many execution slots the attached engine uses (site
  /// shards + control).  Called by the engine once its shard topology is
  /// fixed; until then everything stays on slot 0.
  void set_exec_slots(std::uint32_t slots);

  /// Full snapshot: {"federation": {...}, "sites": {...}, "nodes": {...},
  /// "traces": [...]}.  Integers only; byte-stable across same-seed runs.
  /// Snapshot-time only: no shard may be writing.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;
  Scope fed_;
  std::map<std::uint32_t, Scope> sites_;
  std::map<std::string, Scope> nodes_;
  CausalLog causal_;
  bool causal_bound_ = false;
};

}  // namespace rbay::obs
