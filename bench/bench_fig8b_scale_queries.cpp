// Fig. 8b — Scale with #queries: load balance of query forwarding.
//
// Paper workload (§IV.B.2): the 1,000 queries of the Fig. 8a run are
// tracked by the NodeIds of the intermediate forwarders.  The claim:
// queries Q1..Q10 (ten distinct resource keys) are evenly distributed
// across NodeIds with ~100 forwards each, because independent keys map to
// different overlay locations and split the lookup load.
//
// We reproduce the run, print per-key total forwards, the spread of
// forwarding load across nodes, and the share absorbed by the hottest
// node (the would-be bottleneck in a centralized design).

// A second series stresses the information plane above the raw overlay:
// under a Zipf-skewed attribute popularity (everyone asks about the same
// hot trees), every size probe converges on the same rendezvous roots and
// their last-hop forwarders.  The hot-tree balancer (docs/LOAD_BALANCING.md:
// fan-in caps + root-set rotation) must cut the hottest node's per-query
// forward share at least 2x at identical answers — CI gates on the JSON
// this bench emits (BENCH_fig8b.json).

#include <algorithm>

#include "bench_common.hpp"
#include "core/naming.hpp"
#include "pastry/overlay.hpp"
#include "util/rng.hpp"
#include "util/sha1.hpp"

using namespace rbay;

namespace {

struct AtomicQuery final : pastry::AppMessage {
  int key_index = 0;
  [[nodiscard]] std::size_t wire_size() const override { return 48; }
  [[nodiscard]] const char* type_name() const override { return "AtomicQuery"; }
};

class KeyRecorder final : public pastry::PastryApp {
 public:
  explicit KeyRecorder(std::vector<int>& deliveries) : deliveries_(deliveries) {}
  void deliver(const pastry::NodeId&, pastry::AppMessage& msg, int) override {
    auto* q = dynamic_cast<AtomicQuery*>(&msg);
    if (q != nullptr) ++deliveries_[static_cast<std::size_t>(q->key_index)];
  }

 private:
  std::vector<int>& deliveries_;
};

/// One Zipf-series configuration: per-node forward load of the query
/// phase (deltas around it), the answers themselves (for the equal-
/// correctness check), and the balancer's own event counters.
struct ZipfRun {
  std::uint64_t hottest_forwards = 0;
  std::uint64_t top10_forwards = 0;
  std::uint64_t total_forwards = 0;
  std::vector<double> answers;
  std::uint64_t splits = 0;
  std::uint64_t delegations = 0;
  std::uint64_t rotations = 0;
};

constexpr int kZipfAttrs = 10;
constexpr double kZipfSkew = 1.2;
constexpr std::size_t kOriginPool = 16;

/// Deterministic membership (identical across configurations): ~40% of
/// nodes carry each attribute.
bool zipf_member(std::size_t node, int attr) {
  return (node * 31 + static_cast<std::size_t>(attr) * 17) % 10 < 4;
}

/// `obs_args` non-null instruments this configuration with the uniform
/// observability exports (the balanced run — the one the figure is about).
ZipfRun run_zipf_series(std::uint64_t seed, bool balanced, bool small,
                        const bench::Args* obs_args = nullptr) {
  const std::size_t n = small ? 64 : 128;
  const int queries = small ? 300 : 1000;

  core::ClusterConfig config;
  config.topology = net::Topology::single_site();
  config.seed = seed;
  config.node.scribe.aggregation_interval = util::SimTime::millis(250);
  config.node.scribe.heartbeat_interval = util::SimTime::millis(250);
  config.node.scribe.max_staleness = util::SimTime::seconds(2);
  if (balanced) {
    config.node.scribe.fan_in_cap = 4;
    config.node.scribe.root_set = 3;
  }
  config.metrics = obs_args != nullptr && obs_args->wants_metrics();
  core::RBayCluster cluster{config};
  for (int k = 0; k < kZipfAttrs; ++k) {
    cluster.add_tree_spec(core::TreeSpec::from_predicate(
        {"attr" + std::to_string(k), query::CompareOp::Eq, store::AttributeValue{true}}));
  }
  for (std::size_t i = 0; i < n; ++i) cluster.add_node(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < kZipfAttrs; ++k) {
      if (zipf_member(i, k)) {
        (void)cluster.node(i).post("attr" + std::to_string(k), true);
      }
    }
  }
  cluster.finalize();
  const auto timeseries =
      obs_args != nullptr ? bench::start_timeseries(cluster, *obs_args) : nullptr;
  // Warm-up: trees settle, caps split, aggregates roll up.  A capped tree
  // re-shapes one level per episode, so its depth — and the number of
  // aggregation rounds the roll-up needs — grows with member count; the
  // full-size run needs proportionally longer than the smoke size.
  cluster.run_for(util::SimTime::seconds(small ? 3 : 10));
  cluster.run();

  std::vector<std::uint64_t> before(n);
  for (std::size_t i = 0; i < n; ++i) before[i] = cluster.overlay().node(i).forward_count();

  // Same seed => same attribute sequence in both configurations; origins
  // rotate through a fixed pool so roster caches actually get reused.
  util::Rng pick{seed * 977 + 13};
  ZipfRun out;
  for (int q = 0; q < queries; ++q) {
    const auto attr = static_cast<int>(pick.zipf(kZipfAttrs, kZipfSkew)) - 1;
    const auto origin = static_cast<std::size_t>(q) % std::min(kOriginPool, n);
    const auto topic = core::site_topic(cluster.tree_specs()[static_cast<std::size_t>(attr)].canonical,
                                        "Local");
    double value = -1.0;
    cluster.node(origin).scribe().probe_size(
        topic, [&](const scribe::Scribe::SizeInfo* info) {
          if (info != nullptr) value = info->value;
        });
    cluster.run();
    out.answers.push_back(value);
  }

  std::vector<std::uint64_t> deltas(n);
  for (std::size_t i = 0; i < n; ++i) {
    deltas[i] = cluster.overlay().node(i).forward_count() - before[i];
    out.total_forwards += deltas[i];
  }
  std::sort(deltas.rbegin(), deltas.rend());
  out.hottest_forwards = deltas[0];
  for (std::size_t i = 0; i < 10 && i < n; ++i) out.top10_forwards += deltas[i];
  for (std::size_t i = 0; i < n; ++i) {
    out.splits += cluster.node(i).scribe().split_count();
    out.delegations += cluster.node(i).scribe().delegation_count();
    out.rotations += cluster.node(i).scribe().rotation_count();
  }
  if (obs_args != nullptr) {
    bench::dump_observability(cluster, timeseries.get(), *obs_args);
  }
  return out;
}

/// Hottest-node forward share in basis points of the query count: how many
/// of every 10,000 queries the single hottest node had to forward.
std::uint64_t share_bp(std::uint64_t forwards, int queries) {
  return forwards * 10000 / static_cast<std::uint64_t>(queries);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, {.json = true});
  bench::print_header("Fig. 8b", "load balance of query forwarding across NodeIds");

  const std::size_t n = args.small ? 500 : 2000;
  const int keys = 10;                         // Q1..Q10
  const int queries_per_key = args.small ? 40 : 100;

  sim::Engine engine{args.seed};
  pastry::Overlay overlay{engine, net::Topology::single_site()};
  for (std::size_t i = 0; i < n; ++i) overlay.create_node(0);
  overlay.build_static();

  std::vector<int> deliveries(keys, 0);
  KeyRecorder recorder{deliveries};
  pastry::AppId app{};
  for (std::size_t i = 0; i < n; ++i) app = overlay.node(i).register_app("q", &recorder);

  auto& rng = engine.rng();
  for (int k = 0; k < keys; ++k) {
    const auto key = util::Sha1::hash128("resource-key-" + std::to_string(k));
    for (int q = 0; q < queries_per_key; ++q) {
      auto msg = std::make_unique<AtomicQuery>();
      msg->key_index = k;
      overlay.node(rng.uniform(n)).route(key, std::move(msg), app);
    }
  }
  engine.run();

  std::printf("%6s %16s %12s\n", "query", "root NodeId", "deliveries");
  for (int k = 0; k < keys; ++k) {
    const auto key = util::Sha1::hash128("resource-key-" + std::to_string(k));
    std::printf("Q%-5d %16s %12d\n", k + 1,
                overlay.ref(overlay.root_of(key)).id.to_hex().substr(0, 12).c_str(),
                deliveries[static_cast<std::size_t>(k)]);
  }

  // Forwarding-load distribution across all nodes.
  std::vector<double> forwards;
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto f = static_cast<double>(overlay.node(i).forward_count());
    forwards.push_back(f);
    total += f;
  }
  std::sort(forwards.rbegin(), forwards.rend());
  const double hottest_share = total > 0 ? forwards[0] / total : 0.0;
  double top10 = 0;
  for (int i = 0; i < 10 && i < static_cast<int>(forwards.size()); ++i) top10 += forwards[i];

  std::printf("\ntotal forwards: %.0f across %zu nodes (avg %.1f per active node)\n", total, n,
              total / static_cast<double>(n));
  std::printf("hottest forwarder handles %.1f%% of all forwards (centralized would be 100%%)\n",
              hottest_share * 100);
  std::printf("top-10 forwarders handle %.1f%%\n", top10 / total * 100);

  util::Histogram histogram{0.0, forwards[0] + 1.0, 10};
  for (double f : forwards) histogram.add(f);
  std::printf("\nforwards-per-node histogram:\n%s", histogram.render(40).c_str());
  std::printf("expected shape: load spread over many forwarders; no node takes more than a few %%.\n");

  // --- Zipf-skewed hot-tree series ----------------------------------------
  // Identical federation, identical query sequence; the only difference is
  // the balancer (fan-in caps + root-set rotation) being on or off.
  const int zipf_queries = args.small ? 300 : 1000;
  bench::print_header("Fig. 8b (hot trees)",
                      "Zipf-skewed size probes, balancer off vs on");
  const auto uncapped = run_zipf_series(args.seed, /*balanced=*/false, args.small);
  const auto capped = run_zipf_series(args.seed, /*balanced=*/true, args.small, &args);

  if (uncapped.answers != capped.answers) {
    std::size_t at = 0;
    while (at < uncapped.answers.size() && uncapped.answers[at] == capped.answers[at]) ++at;
    std::fprintf(stderr,
                 "FAIL: balancer changed query %zu's answer (%.1f uncapped, %.1f capped)\n",
                 at, uncapped.answers[at], capped.answers[at]);
    return 1;
  }
  for (std::size_t q = 0; q < capped.answers.size(); ++q) {
    if (capped.answers[q] < 0.0) {
      std::fprintf(stderr, "FAIL: query %zu never completed\n", q);
      return 1;
    }
  }

  const auto un_hot = share_bp(uncapped.hottest_forwards, zipf_queries);
  const auto cap_hot = share_bp(capped.hottest_forwards, zipf_queries);
  std::printf("%-28s %14s %14s\n", "", "balancer off", "balancer on");
  std::printf("%-28s %14llu %14llu\n", "total forwards",
              static_cast<unsigned long long>(uncapped.total_forwards),
              static_cast<unsigned long long>(capped.total_forwards));
  std::printf("%-28s %13.2f%% %13.2f%%\n", "hottest node / query",
              static_cast<double>(un_hot) / 100.0, static_cast<double>(cap_hot) / 100.0);
  std::printf("%-28s %13.2f%% %13.2f%%\n", "top-10 nodes / query",
              static_cast<double>(share_bp(uncapped.top10_forwards, zipf_queries)) / 100.0,
              static_cast<double>(share_bp(capped.top10_forwards, zipf_queries)) / 100.0);
  std::printf("%-28s %14llu %14llu\n", "splits",
              static_cast<unsigned long long>(uncapped.splits),
              static_cast<unsigned long long>(capped.splits));
  std::printf("%-28s %14llu %14llu\n", "delegations",
              static_cast<unsigned long long>(uncapped.delegations),
              static_cast<unsigned long long>(capped.delegations));
  std::printf("%-28s %14llu %14llu\n", "rotations",
              static_cast<unsigned long long>(uncapped.rotations),
              static_cast<unsigned long long>(capped.rotations));
  std::printf("all %d answers identical across configurations.\n", zipf_queries);

  if (!args.json_path.empty()) {
    std::string json = "{";
    obs::json::append_key(json, "bench");
    obs::json::append_string(json, "fig8b");
    json += ",";
    obs::json::append_key(json, "seed");
    obs::json::append_uint(json, args.seed);
    json += ",";
    obs::json::append_key(json, "zipf_queries");
    obs::json::append_int(json, zipf_queries);
    json += ",";
    obs::json::append_key(json, "zipf_uncapped_hottest_bp");
    obs::json::append_uint(json, un_hot);
    json += ",";
    obs::json::append_key(json, "zipf_uncapped_top10_bp");
    obs::json::append_uint(json, share_bp(uncapped.top10_forwards, zipf_queries));
    json += ",";
    obs::json::append_key(json, "zipf_uncapped_total_forwards");
    obs::json::append_uint(json, uncapped.total_forwards);
    json += ",";
    obs::json::append_key(json, "zipf_capped_hottest_bp");
    obs::json::append_uint(json, cap_hot);
    json += ",";
    obs::json::append_key(json, "zipf_capped_top10_bp");
    obs::json::append_uint(json, share_bp(capped.top10_forwards, zipf_queries));
    json += ",";
    obs::json::append_key(json, "zipf_capped_total_forwards");
    obs::json::append_uint(json, capped.total_forwards);
    json += ",";
    obs::json::append_key(json, "zipf_capped_splits");
    obs::json::append_uint(json, capped.splits);
    json += ",";
    obs::json::append_key(json, "zipf_capped_rotations");
    obs::json::append_uint(json, capped.rotations);
    json += "}\n";
    bench::write_output(args.json_path, json, "bench summary");
  }
  return 0;
}
