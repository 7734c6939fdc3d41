// Fig. 8a — Scale with #nodes: average query hops vs datacenter size.
//
// Paper workload (§IV.B.1): 10,000 agents, 10 attributes each, every
// attribute has a 10% exposure probability; 1,000 atomic queries, each
// asking for one attribute.  The figure shows hops growing LINEARLY with
// an EXPONENTIAL increase in node count — i.e. O(log N) DHT routing.
//
// We sweep the node count 10 → 10,000 (512 → 8,192 with --small halved)
// and report the mean hop count per decade, plus the log16(N) reference.
//
// `--threads N` additionally runs the parallel-engine scaling sweep
// (docs/PARALLEL_ENGINE.md): the same routing workload on a 16-site
// uniform topology — 100,000 nodes (10,000 with --small) — executed at
// 1, 2, 4, ... N worker threads on the sharded engine.  Reported per
// point: wall-clock events/sec plus the hop checksum, which must be
// IDENTICAL at every thread count (the bench exits non-zero otherwise —
// the sweep doubles as a determinism check at 100k-node scale).  With
// --json the sweep lands in BENCH_fig8a.json; CI trend-gates its
// `peak_events_per_sec` against the previously archived copy.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pastry/overlay.hpp"
#include "util/sha1.hpp"

using namespace rbay;

namespace {

struct AtomicQuery final : pastry::AppMessage {
  [[nodiscard]] std::size_t wire_size() const override { return 48; }
  [[nodiscard]] const char* type_name() const override { return "AtomicQuery"; }
};

class HopRecorder final : public pastry::PastryApp {
 public:
  void deliver(const pastry::NodeId&, pastry::AppMessage&, int hops) override {
    hop_samples.add(static_cast<double>(hops));
  }
  util::Samples hop_samples;
};

struct SweepPoint {
  unsigned threads = 0;
  std::size_t nodes = 0;
  std::size_t sites = 0;
  std::uint64_t events = 0;
  std::int64_t wall_ms = 0;
  std::int64_t events_per_sec = 0;
  std::uint64_t hop_sum = 0;  // determinism checksum across thread counts
  std::size_t deliveries = 0;
};

/// One point of the parallel-engine sweep: the routing workload on a
/// 16-site sharded engine with `threads` workers, measured in wall-clock
/// events/sec of the run() phase (setup excluded).
SweepPoint run_sweep_point(unsigned threads, std::size_t n, int queries,
                           std::uint64_t seed) {
  sim::EngineConfig config;
  config.threads = threads;
  sim::Engine engine{seed, config};
  constexpr std::size_t kSites = 16;
  pastry::Overlay overlay{engine, net::Topology::uniform(kSites, 0.5, 40.0)};
  overlay.populate(n / kSites);
  overlay.build_static();

  // One recorder per site: a site's nodes deliver only on that site's
  // shard, so each recorder has a single writer at any worker count.
  std::vector<HopRecorder> recorders(kSites);
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    overlay.node(i).register_app("q", &recorders[overlay.ref(i).site]);
  }

  // Same key universe / query mix as the hop sweep, drawn from the
  // control stream so every thread count sees the same workload.
  auto& rng = engine.rng();
  std::vector<pastry::NodeId> keys;
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    if (rng.chance(0.10)) {
      keys.push_back(util::Sha1::hash128("attr-" + std::to_string(i)));
    }
  }
  if (keys.empty()) keys.push_back(util::Sha1::hash128("fallback"));
  for (int q = 0; q < queries; ++q) {
    const auto from = rng.uniform(overlay.size());
    const auto& key = keys[rng.uniform(keys.size())];
    overlay.node(from).route(key, std::make_unique<AtomicQuery>(), "q");
  }

  const auto start = std::chrono::steady_clock::now();
  engine.run();
  const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  SweepPoint point;
  point.threads = threads;
  point.nodes = overlay.size();
  point.sites = kSites;
  point.events = engine.executed();
  point.wall_ms = wall.count();
  point.events_per_sec = static_cast<std::int64_t>(
      static_cast<double>(point.events) /
      (static_cast<double>(std::max<std::int64_t>(wall.count(), 1)) / 1000.0));
  for (const HopRecorder& recorder : recorders) {  // merged in site order
    for (const double hops : recorder.hop_samples.values()) {
      point.hop_sum += static_cast<std::uint64_t>(hops);
    }
    point.deliveries += recorder.hop_samples.count();
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  bench::print_header("Fig. 8a", "average #hops per query vs #nodes (single site)");

  const std::vector<std::size_t> sizes =
      args.small ? std::vector<std::size_t>{10, 100, 1000}
                 : std::vector<std::size_t>{10, 50, 100, 500, 1000, 5000, 10000};
  const int queries = args.small ? 200 : 1000;
  const int attrs_per_node = 10;
  const double expose_probability = 0.10;

  std::printf("%10s %12s %12s %14s\n", "#nodes", "avg hops", "p99 hops", "log16(N) ref");
  for (const auto n : sizes) {
    sim::Engine engine{args.seed};
    // The obs flags instrument the headline (largest) sweep point.
    const bool instrumented = n == sizes.back();
    bench::EngineObs obs{engine, instrumented ? args : bench::Args{}};
    pastry::Overlay overlay{engine, net::Topology::single_site()};
    for (std::size_t i = 0; i < n; ++i) overlay.create_node(0);
    overlay.build_static();

    HopRecorder recorder;
    for (std::size_t i = 0; i < n; ++i) {
      overlay.node(i).register_app("q", &recorder);
    }

    // Exposed attribute keys: node i exposes attribute (i*attrs..+9) with
    // 10% probability; queries target random attribute keys.  For hop
    // measurements what matters is the key → root routing.
    std::vector<pastry::NodeId> keys;
    auto& rng = engine.rng();
    for (std::size_t i = 0; i < n; ++i) {
      for (int a = 0; a < attrs_per_node; ++a) {
        if (rng.chance(expose_probability)) {
          keys.push_back(util::Sha1::hash128("attr-" + std::to_string(i) + "-" +
                                             std::to_string(a)));
        }
      }
    }
    if (keys.empty()) keys.push_back(util::Sha1::hash128("fallback"));

    for (int q = 0; q < queries; ++q) {
      const auto from = rng.uniform(n);
      const auto& key = keys[rng.uniform(keys.size())];
      overlay.node(from).route(key, std::make_unique<AtomicQuery>(), "q");
    }
    engine.run();
    obs.dump();

    const double ref = std::log(static_cast<double>(n)) / std::log(16.0);
    std::printf("%10zu %12.2f %12.0f %14.2f\n", n, recorder.hop_samples.mean(),
                recorder.hop_samples.percentile(99), ref);
  }
  std::printf("\nexpected shape: hops grow ~linearly per decade of N (O(log N) routing).\n");

  if (args.threads <= 0) return 0;

  // --- parallel-engine scaling sweep (docs/PARALLEL_ENGINE.md) ------------
  const std::size_t sweep_nodes = args.small ? 10000 : 100000;
  const int sweep_queries = args.small ? 20000 : 100000;
  std::printf("\nparallel engine: %zu nodes over 16 sites, %d routed queries\n",
              sweep_nodes, sweep_queries);
  std::printf("%10s %12s %12s %14s %12s\n", "#threads", "events", "wall ms",
              "events/sec", "hop sum");

  std::vector<SweepPoint> sweep;
  for (unsigned t = 1; t <= static_cast<unsigned>(args.threads); t *= 2) {
    sweep.push_back(run_sweep_point(t, sweep_nodes, sweep_queries, args.seed));
    const auto& p = sweep.back();
    std::printf("%10u %12llu %12lld %14lld %12llu\n", p.threads,
                static_cast<unsigned long long>(p.events),
                static_cast<long long>(p.wall_ms),
                static_cast<long long>(p.events_per_sec),
                static_cast<unsigned long long>(p.hop_sum));
  }

  // Determinism gate: every thread count must execute the same schedule —
  // same event count, same deliveries, same hop checksum.
  for (const auto& p : sweep) {
    if (p.events != sweep.front().events || p.hop_sum != sweep.front().hop_sum ||
        p.deliveries != sweep.front().deliveries) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: threads=%u ran a different schedule "
                   "(events %llu vs %llu, hop sum %llu vs %llu)\n",
                   p.threads, static_cast<unsigned long long>(p.events),
                   static_cast<unsigned long long>(sweep.front().events),
                   static_cast<unsigned long long>(p.hop_sum),
                   static_cast<unsigned long long>(sweep.front().hop_sum));
      return 1;
    }
  }
  std::printf("determinism ok: identical schedule (%llu events, hop sum %llu) "
              "at every thread count\n",
              static_cast<unsigned long long>(sweep.front().events),
              static_cast<unsigned long long>(sweep.front().hop_sum));

  if (!args.json_path.empty()) {
    // Hand-rolled summary: the sweep shape does not fit BenchJson's latency
    // series.  `peak_events_per_sec` (highest thread count) is the field
    // tools/ci.sh trend-gates; wall-clock numbers are machine-dependent,
    // the schedule fields (events, hop_sum) are exact.
    std::string out = "{";
    obs::json::append_key(out, "bench");
    obs::json::append_string(out, "fig8a");
    out += ",";
    obs::json::append_key(out, "seed");
    obs::json::append_uint(out, args.seed);
    out += ",";
    obs::json::append_key(out, "sweep_nodes");
    obs::json::append_uint(out, sweep_nodes);
    out += ",";
    obs::json::append_key(out, "nproc");  // cores the wall-clock figures ran on
    obs::json::append_uint(out, std::thread::hardware_concurrency());
    out += ",";
    obs::json::append_key(out, "peak_threads");
    obs::json::append_uint(out, sweep.back().threads);
    out += ",";
    obs::json::append_key(out, "peak_events_per_sec");
    obs::json::append_int(out, sweep.back().events_per_sec);
    out += ",";
    obs::json::append_key(out, "threads_sweep");
    out += "[";
    obs::json::Comma comma;
    for (const auto& p : sweep) {
      comma.next(out);
      out += "{";
      obs::json::append_key(out, "threads");
      obs::json::append_uint(out, p.threads);
      out += ",";
      obs::json::append_key(out, "nodes");
      obs::json::append_uint(out, p.nodes);
      out += ",";
      obs::json::append_key(out, "events");
      obs::json::append_uint(out, p.events);
      out += ",";
      obs::json::append_key(out, "wall_ms");
      obs::json::append_int(out, p.wall_ms);
      out += ",";
      obs::json::append_key(out, "events_per_sec");
      obs::json::append_int(out, p.events_per_sec);
      out += ",";
      obs::json::append_key(out, "hop_sum");
      obs::json::append_uint(out, p.hop_sum);
      out += "}";
    }
    out += "]}\n";
    if (args.json_path == "-") {
      std::fputs(out.c_str(), stdout);
    } else {
      std::ofstream file{args.json_path};
      file << out;
      std::fprintf(stderr, "bench summary written to %s\n", args.json_path.c_str());
    }
  }
  return 0;
}
