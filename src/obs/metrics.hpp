#pragma once

// Observability registry: named counters, gauges, and HDR-style latency
// histograms, organized into scopes — one federation-wide and one per site
// — plus the causal log that query traces are built from.
//
// Design rules (they are what make the deterministic-replay test possible):
//   * every timestamp and latency is sim-time from the engine's virtual
//     clock — wall time never enters;
//   * every container is a std::map, so iteration (and therefore JSON
//     output) is ordered and two same-seed runs serialize byte-identically;
//   * to_json() emits integers only (counts, microseconds) — no
//     floating-point formatting;
//   * "disabled" means no Registry is attached to the engine: instrumented
//     code guards on a null pointer and pays nothing else.
//
// One way to write a metric: a string-literal key at the call site,
// `fed.counter<"net.messages_sent">().inc()`, interned to a dense id once
// and found lock-free by every Scope, so no writer keeps handles.
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
//   * A key lookup that creates takes the scope's mutex (shards may
//     first-touch a metric mid-window); one that finds is lock-free.
//     Ordered iteration and to_json() are snapshot-time operations: they
//     run at barriers or after the run, when no shard is writing.
// An engine without a Network never leaves slot 0, so every structure
// stays in its slot-0 cell.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

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

/// A name in the process-wide name table (under a lock): a dense id and a
/// copy that never moves or dies.  Metric keys and the event names built
/// at run time (alert and watchdog transitions) share the table.
struct InternedName {
  std::uint32_t id;
  const std::string* name;
};
[[nodiscard]] InternedName intern_name(std::string_view name);

/// A metric name interned (intern_name) to a dense id.
class MetricKey {
 public:
  explicit MetricKey(std::string_view name) : name_(intern_name(name)) {}
  [[nodiscard]] std::uint32_t id() const { return name_.id; }
  [[nodiscard]] const std::string& name() const { return *name_.name; }

 private:
  InternedName name_;
};

/// A string literal usable as a template argument: `counter<"sim.events">()`.
template <std::size_t N>
struct MetricName {
  char chars[N];
  consteval MetricName(const char (&s)[N]) { std::copy_n(s, N, chars); }  // NOLINT: implicit
};

namespace detail {

/// The key of a call site, interned on the site's first run.
template <MetricName N>
const MetricKey& key_of() {
  static const MetricKey key{std::string_view(N.chars, sizeof(N.chars) - 1)};
  return key;
}

/// Dense id -> T* table, read lock-free; writers hold the owner's mutex.
template <typename T>
class IdIndex {
 public:
  /// The item under `id`, made by `make()` under `mu` on first use (`make`
  /// must return the same item if two threads race to it).
  template <typename Make>
  T& get(std::uint32_t id, std::mutex& mu, Make&& make) {
    const Table* seen = table_.load(std::memory_order_acquire);
    if (seen != nullptr && id < seen->size) {
      if (T* found = seen->slots[id].load(std::memory_order_acquire)) return *found;
    }
    std::lock_guard<std::mutex> lk(mu);
    Table* t = owner_.get();
    if (t == nullptr || id >= t->size) {  // grow: the copy owns the table readers may hold
      auto grown = std::make_unique<Table>(std::max<std::size_t>(8, std::bit_ceil(id + 1UL)));
      for (std::size_t i = 0; t != nullptr && i < t->size; ++i) {
        grown->slots[i].store(t->slots[i].load());
      }
      grown->older = std::move(owner_);
      owner_ = std::move(grown);
      t = owner_.get();
      table_.store(t, std::memory_order_release);
    }
    T& item = make();
    t->slots[id].store(&item, std::memory_order_release);
    return item;
  }

 private:
  struct Table {
    explicit Table(std::size_t n) : size(n), slots(new std::atomic<T*>[n]()) {}
    std::size_t size;
    std::unique_ptr<std::atomic<T*>[]> slots;
    std::unique_ptr<Table> older;
  };
  std::unique_ptr<Table> owner_;
  std::atomic<Table*> table_{nullptr};
};

}  // namespace detail

/// A namespace of metrics.  A key lookup creates on first use; references
/// stay valid for the registry's lifetime (std::map node stability).
/// Ordered iteration is snapshot-time only.
class Scope {
 public:
  Scope() = default;
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// The only creating lookups: by key, or by a call-site literal key.
  Counter& counter(const MetricKey& key) { return lookup(counters_, counter_ids_, key); }
  Gauge& gauge(const MetricKey& key) { return lookup(gauges_, gauge_ids_, key); }
  LatencyHisto& latency(const MetricKey& key) { return lookup(latencies_, latency_ids_, key); }
  template <MetricName Name>
  Counter& counter() { return counter(detail::key_of<Name>()); }
  template <MetricName Name>
  Gauge& gauge() { return gauge(detail::key_of<Name>()); }
  template <MetricName Name>
  LatencyHisto& latency() { return latency(detail::key_of<Name>()); }

  /// Read-only lookup that never creates (the time-series sampler and the
  /// scenario `expect metric` directive must observe without perturbing
  /// the snapshot).  Returns nullptr when the metric does not exist.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const {
    return find(counters_, name);
  }
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const {
    return find(gauges_, name);
  }
  [[nodiscard]] const LatencyHisto* find_latency(const std::string& name) const {
    return find(latencies_, name);
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
  template <typename T>
  T& lookup(std::map<std::string, T>& by_name, detail::IdIndex<T>& by_id, const MetricKey& key) {
    return by_id.get(key.id(), mu_, [&]() -> T& { return by_name[key.name()]; });
  }
  template <typename T>
  const T* find(const std::map<std::string, T>& by_name, const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : &it->second;
  }

  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHisto> latencies_;
  detail::IdIndex<Counter> counter_ids_;
  detail::IdIndex<Gauge> gauge_ids_;
  detail::IdIndex<LatencyHisto> latency_ids_;
};

/// The root of the observability tree: federation scope, per-site scopes
/// (keyed by site id), and the causal log.  Attach to a sim::Engine with
/// engine.set_metrics(&reg); detached (the default) every instrumented
/// path is a null-check no-op.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Scope& fed() { return fed_; }
  /// Site scopes are found lock-free once created, like keyed metrics.
  Scope& site(std::uint32_t site_id) {
    return site_ids_.get(site_id, mu_, [&]() -> Scope& { return sites_[site_id]; });
  }
  [[nodiscard]] const Scope& fed() const { return fed_; }
  /// Read-only view of the per-site scopes (never creates; snapshot-time).
  [[nodiscard]] const std::map<std::uint32_t, Scope>& sites() const { return sites_; }

  /// Causal tracing log.  The mutable accessor makes the trace.* counters
  /// appear: a registry that never traces keeps a counter-free snapshot.
  CausalLog& causal() {
    fed_.counter<"trace.events">();
    fed_.counter<"trace.dropped">();
    fed_.counter<"trace.flight_overwrites">();
    return causal_;
  }
  [[nodiscard]] const CausalLog& causal_log() const { return causal_; }

  /// Declares how many execution slots the attached engine uses (site
  /// shards + control).  Called by the engine once its shard topology is
  /// fixed; until then everything stays on slot 0.
  void set_exec_slots(std::uint32_t slots);

  /// Full snapshot: {"federation": {...}, "sites": {...}, "traces": [...]}.
  /// Integers only; byte-stable across same-seed runs.  Snapshot-time
  /// only: no shard may be writing.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;
  Scope fed_;
  std::map<std::uint32_t, Scope> sites_;
  detail::IdIndex<Scope> site_ids_;
  CausalLog causal_{&fed_};
};

}  // namespace rbay::obs
