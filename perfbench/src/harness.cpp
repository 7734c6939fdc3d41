#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace json = rbay::obs::json;

std::int64_t rss_bytes() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<std::int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

std::int64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;  // Linux reports KiB
}

double Spans::layer_seconds(const std::string& layer, std::size_t from) const {
  double total = 0.0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (layer == spans_[i].layer) total += spans_[i].dur;
  }
  return total;
}

std::string Spans::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  out += R"({"ph":"M","name":"process_name","pid":1,"tid":1,"args":{"name":"perfbench"}})";
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const auto& s : spans_) {
    out += ",{\"ph\":\"X\",\"name\":";
    json::append_string(out, s.name);
    out += ",\"cat\":";
    json::append_string(out, s.layer);
    out += ",\"pid\":1,\"tid\":1,\"ts\":";
    json::append_int(out, static_cast<std::int64_t>((s.start - origin) * 1e6));
    out += ",\"dur\":";
    json::append_int(out, static_cast<std::int64_t>(s.dur * 1e6));
    out += "}";
  }
  out += "]}\n";
  return out;
}

Snapshot snapshot(sim::Engine& engine, net::Network& network) {
  Snapshot s;
  s.events = engine.executed();
  const auto& stats = network.stats();
  s.msgs = stats.messages_sent;
  s.bytes = stats.bytes_sent;
  s.dropped = stats.messages_dropped;
  s.sim_s = engine.now().as_seconds();
  if (auto* reg = engine.metrics()) {
    for (const auto& [name, counter] : reg->fed().counters()) s.counters[name] = counter.value();
    if (const auto* hops = reg->fed().find_latency("pastry.delivery_hops")) {
      s.hop_sum = hops->sum_us();  // the histogram's values are hop counts
      s.hop_count = hops->count();
    }
  }
  return s;
}

void Result::error(std::string what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  if (errors_.size() < 20) errors_.push_back(std::move(what));
}

std::string Result::to_json() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":";
  json::append_uint(out, attempted_);
  out += ",\"failed\":";
  json::append_uint(out, failed_);
  out += ",\"errors\":[";
  json::Comma comma;
  for (const auto& e : errors_) {
    comma.next(out);
    json::append_string(out, e);
  }
  out += "],\"provenance\":{";
  json::Comma pcomma;
  for (const auto& [key, value] : prov_) {
    pcomma.next(out);
    json::append_key(out, key);
    json::append_string(out, value);
  }
  out += "},\"metrics\":{";
  json::Comma mcomma;
  for (const auto& [name, metric] : metrics_) {
    mcomma.next(out);
    json::append_key(out, name);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.first);
    out += "{\"value\":";
    out += value;
    out += ",\"unit\":";
    json::append_string(out, metric.second);
    out += "}";
  }
  out += "}}";
  return out;
}

double pct(const rbay::util::Samples& samples, double p) {
  return samples.empty() ? 0.0 : samples.percentile(p);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t core_delta(const Workload& w, const std::string& counter) {
  const auto end = w.core_end.counters.find(counter);
  if (end == w.core_end.counters.end()) return 0;
  const auto start = w.core_start.counters.find(counter);
  return end->second - (start == w.core_start.counters.end() ? 0 : start->second);
}

double core_sim_seconds(const Workload& w) { return w.core_end.sim_s - w.core_start.sim_s; }

double core_rate(const Workload& w, const std::string& counter) {
  const double sim_s = core_sim_seconds(w);
  return sim_s > 0.0 ? static_cast<double>(core_delta(w, counter)) / sim_s : 0.0;
}

namespace {

/// Set-ups per untraced run; set-up time is reported as their median.
/// More would steady the median of the small federations, but every
/// rebuild leaves the heap more fragmented, which raises peak RSS and
/// slows the measured phase.
constexpr int kSetups = 3;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A fixed amount of host work that shares no code or data with the
/// program: a dependent walk along one random cycle through a 4 MiB table,
/// each step pushed through a 1,024-entry binary heap (the cache misses and
/// heap sifts of an event loop).  Its memory is allocated once and its cycle
/// comes from a fixed seed, so every run of every commit does the same work.
/// Neighbours on a shared host slow it as they slow the simulator, so a
/// host time divided by it no longer carries the host's speed of the moment.
class ReferenceWork {
 public:
  ReferenceWork() : next_(kEntries) {
    heap_.reserve(kHeap);
    // Sattolo's shuffle: a single cycle through every entry, so the walk
    // never settles into a short loop that stays in cache.
    std::iota(next_.begin(), next_.end(), 0u);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t i = kEntries - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[static_cast<std::uint32_t>(x % i)]);
    }
  }

  /// Host seconds for one walk.
  double run() {
    const double t0 = host_now();
    std::uint32_t at = at_;
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      at = next_[at];
      heap_.push_back((static_cast<std::uint64_t>(at) * 0x9E3779B97F4A7C15ULL) ^ step);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      if (heap_.size() == kHeap) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        sink_ += heap_.back();
        heap_.pop_back();
      }
    }
    at_ = at;
    return host_now() - t0;
  }

 private:
  static constexpr std::uint32_t kEntries = 1u << 20;  // 4 MiB of 32-bit links
  static constexpr std::size_t kHeap = 1024;
  static constexpr std::uint32_t kSteps = 1u << 17;

  std::vector<std::uint32_t> next_;
  std::vector<std::uint64_t> heap_;
  std::uint32_t at_ = 0;
  std::uint64_t sink_ = 0;
};

struct Measured {
  double core_wall = 0.0;           // host seconds inside the core's batches
  std::vector<double> batch_rates;  // ops per host second, one per batch
  std::vector<double> ref_rates;    // ops per reference walk, one per batch
  std::vector<double> ref_s;        // every reference walk
};

/// Runs the core, then (unless `core_only`) further batches until
/// `seconds` of host time have passed.  One reference walk runs before the
/// first batch and one after each batch, outside the batch times; the mean
/// of the two walks around a batch is the host's speed during it.
Measured measure(Workload& w, const Options& options, Spans& spans, ReferenceWork& ref,
                 bool core_only) {
  Measured m;
  w.core_start = snapshot(w.engine(), w.network());
  const double t0 = host_now();
  double walk_before = ref.run();
  m.ref_s.push_back(walk_before);
  for (std::size_t b = 0;; ++b) {
    const bool in_core = b < w.core_batches();
    if (!in_core && (core_only || host_now() - t0 >= options.seconds)) break;
    std::size_t ops = 0;
    const double dt = spans.time("bench", "batch", [&] { ops = w.batch(b); });
    const double walk_after = ref.run();
    m.ref_s.push_back(walk_after);
    if (in_core) {
      w.core_ops += ops;
      m.core_wall += dt;
    }
    if (ops > 0 && dt > 0.0) {
      const double rate = static_cast<double>(ops) / dt;
      m.batch_rates.push_back(rate);
      m.ref_rates.push_back(rate * 0.5 * (walk_before + walk_after));
    }
    walk_before = walk_after;
    if (b + 1 == w.core_batches()) w.core_end = snapshot(w.engine(), w.network());
  }
  return m;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path};
  out << text;
  return static_cast<bool>(out);
}

void end_to_end(const Options& options, Factory factory, Result& result) {
  Spans spans;  // never recording: the untraced run only needs durations
  ReferenceWork ref;  // allocated before rss0, so bytes_per_node leaves it out
  const auto rss0 = rss_bytes();
  std::vector<double> setup_s;
  double bytes_per_node = 0.0;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    w = factory(options, spans, /*traced=*/false);
    setup_s.push_back(spans.time("bench", "setup", [&] { w->setup(); }));
    if (i == 0) {
      bytes_per_node = static_cast<double>(rss_bytes() - rss0) / static_cast<double>(w->nodes());
    }
  }
  result.provenance("engine_workers", std::to_string(w->engine().config().threads));
  const auto m = measure(*w, options, spans, ref, /*core_only=*/false);
  w->finish(result);

  result.metric("setup_s", median(setup_s), "s");
  result.metric("wall_s", m.core_wall, "s");
  result.metric("ops_per_s", median(m.batch_rates), "ops/s");
  result.metric("ops_per_ref", median(m.ref_rates), "ops/ref");
  result.metric("ref_ms", median(m.ref_s) * 1e3, "ms");
  result.metric("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0), "MB");
  result.metric("bytes_per_node", bytes_per_node, "B");
  result.metric("ok_frac",
                ratio(static_cast<double>(result.attempted() - result.failed()),
                      static_cast<double>(result.attempted())),
                "1");
  result.metric("msgs_per_sim_s",
                ratio(static_cast<double>(w->core_end.msgs - w->core_start.msgs),
                      core_sim_seconds(*w)),
                "msg/s");
}

void traced(const Options& options, Factory factory, Result& result) {
  Spans spans;
  ReferenceWork ref;
  // Untraced pass over the same core: the denominator of
  // obs.trace_overhead.
  double untraced_wall = 0.0;
  {
    auto untraced = factory(options, spans, /*traced=*/false);
    untraced->setup();
    untraced_wall = measure(*untraced, options, spans, ref, /*core_only=*/true).core_wall;
  }

  spans.record(true);
  auto w = factory(options, spans, /*traced=*/true);
  spans.time("bench", "setup", [&] { w->setup(); });
  result.provenance("engine_workers", std::to_string(w->engine().config().threads));
  result.metric("sim.pending_after_warmup", static_cast<double>(w->engine().pending()), "events");
  const auto mark = spans.mark();
  const auto m = measure(*w, options, spans, ref, /*core_only=*/true);
  const double engine_s = spans.layer_seconds("sim", mark);
  spans.record(false);
  w->finish(result);

  const auto ops = static_cast<double>(w->core_ops);
  const auto events = static_cast<double>(w->core_end.events - w->core_start.events);
  const auto msgs = static_cast<double>(w->core_end.msgs - w->core_start.msgs);
  result.metric("sim.events_per_op", ratio(events, ops), "events/op");
  result.metric("sim.events_per_s", ratio(events, engine_s), "events/s");
  result.metric("sim.engine_host_frac", ratio(engine_s, m.core_wall), "1");
  result.metric("net.msgs_per_op", ratio(msgs, ops), "msg/op");
  result.metric("net.bytes_per_op",
                ratio(static_cast<double>(w->core_end.bytes - w->core_start.bytes), ops), "B/op");
  result.metric("net.drop_frac",
                ratio(static_cast<double>(w->core_end.dropped - w->core_start.dropped), msgs),
                "1");
  result.metric("obs.trace_overhead", ratio(m.core_wall, untraced_wall), "x");

  const auto queries = static_cast<double>(core_delta(*w, "query.started"));
  const auto hits = static_cast<double>(core_delta(*w, "qplane.cache_hits"));
  const auto misses = static_cast<double>(core_delta(*w, "qplane.cache_misses"));
  const auto shed = static_cast<double>(core_delta(*w, "qplane.shed"));
  result.metric("scribe.agg_reports_per_sim_s", core_rate(*w, "scribe.agg_reports"), "1/s");
  result.metric("scribe.root_replications_per_sim_s", core_rate(*w, "scribe.root_replications"),
                "1/s");
  result.metric("scribe.heartbeats_per_sim_s", core_rate(*w, "scribe.heartbeats"), "1/s");
  result.metric("scribe.subscribes_per_sim_s", core_rate(*w, "scribe.subscribes"), "1/s");
  result.metric("scribe.unsubscribes_per_sim_s", core_rate(*w, "scribe.unsubscribes"), "1/s");
  result.metric("scribe.anycast_visits_per_query",
                ratio(static_cast<double>(core_delta(*w, "scribe.anycast_visits")), queries),
                "visits");
  result.metric("core.attempts_per_query",
                ratio(static_cast<double>(core_delta(*w, "query.attempts")), queries), "attempts");
  result.metric("core.backoff_retries",
                static_cast<double>(core_delta(*w, "query.backoff_retries")), "count");
  result.metric("qplane.cache_hit_frac", ratio(hits, hits + misses), "1");
  result.metric("qplane.shed_frac", ratio(shed, queries + shed), "1");
  result.metric("qplane.probe_walks_per_sim_s", core_rate(*w, "qplane.probe_walks"), "1/s");
  result.metric("qplane.probes_coalesced",
                static_cast<double>(core_delta(*w, "qplane.probes_coalesced")), "count");
  w->layers(result);

  const std::string stem = options.out_dir + "/" + options.workload;
  result.metric("pastry.hops_mean",
                ratio(static_cast<double>(w->core_end.hop_sum - w->core_start.hop_sum),
                      static_cast<double>(w->core_end.hop_count - w->core_start.hop_count)),
                "hops");
  if (auto* reg = w->engine().metrics()) {
    std::string snapshot_json;
    const double snap_s = spans.time("obs", "Registry::to_json",
                                     [&] { snapshot_json = reg->to_json(); });
    result.metric("obs.snapshot_ms", snap_s * 1e3, "ms");
    if (!write_file(stem + ".registry.json", snapshot_json)) {
      result.error("cannot write " + stem + ".registry.json");
    }
  }
  if (!write_file(stem + ".spans.json", spans.chrome_json())) {
    result.error("cannot write " + stem + ".spans.json");
  }
}

}  // namespace

int run(const Options& options, Factory factory) {
  Result result;
  result.provenance("build_type", PERFBENCH_BUILD_TYPE);
  result.provenance("cxx_flags", PERFBENCH_CXX_FLAGS);
  result.provenance("compiler", __VERSION__);
  result.provenance("workload", options.workload);
  result.provenance("seed", std::to_string(options.seed));
  result.provenance("nproc", std::to_string(std::thread::hardware_concurrency()));
  if (options.trace) {
    traced(options, factory, result);
  } else {
    end_to_end(options, factory, result);
  }
  std::printf("%s\n", result.to_json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
