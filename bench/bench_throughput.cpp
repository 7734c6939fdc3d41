// Query-plane throughput — sustained QPS under a Zipf-skewed open-loop
// COUNT workload, with the query-plane optimizations (staleness-bounded
// answer caching + probe batching) OFF vs ON at an identical admission
// window.
//
// Workload: the paper's 8-site federation at 10k nodes (1250/site); one
// busy "inventory dashboard" user per site fires site-scoped
// SELECT COUNT queries whose instance-type popularity follows a Zipf
// distribution over the 23 EC2 types.  The open-loop driver offers the
// same arrival stream to both configurations, far above what one
// admission window can carry when every query walks the aggregation
// tree.
//
// Expected shape: the baseline holds an admission slot for the full
// tree-walk round trip, so it saturates at window/walk-time and sheds
// the rest; with the cache + batcher on, hot-type queries short-circuit
// at the gateway inside the TTL (one walk per tree per aggregation
// period) and the same window sustains the full offered rate — >= 5x
// the baseline at equal-or-better p99.

#include "bench_common.hpp"
#include "qplane/workload_driver.hpp"

using namespace rbay;
using bench::EvalFederation;

namespace {

struct RunStats {
  std::string label;
  std::uint64_t offered = 0;
  std::uint64_t satisfied = 0;
  std::uint64_t shed = 0;
  std::int64_t sustained_qps = 0;
  std::int64_t p50_us = 0;
  std::int64_t p99_us = 0;
  std::int64_t p999_us = 0;
  std::int64_t cache_hit_rate_pct = 0;
  std::int64_t shed_rate_pct = 0;
  std::uint64_t probe_walks = 0;
  std::uint64_t probes_coalesced = 0;
};

RunStats run_config(bool optimized, const bench::Args& args, std::size_t per_site,
                    double rate_qps, double duration_s) {
  EvalFederation fed{per_site, args.seed, /*with_password=*/true, /*metrics=*/true,
                     [optimized](core::ClusterConfig& config) {
                       // Identical capacity model for both runs: one slot
                       // plus a short backlog per origin interface.
                       config.node.query.qplane.admission_window = 1;
                       config.node.query.qplane.admission_queue = 2;
                       if (optimized) {
                         // TTL tied to the aggregation period: a cached
                         // answer is never staler than one refresh.
                         config.node.query.qplane.cache_ttl =
                             config.node.scribe.aggregation_interval;
                         config.node.query.qplane.batch_probes = true;
                       }
                     }};
  auto& cluster = fed.cluster;
  // Only the optimized run is exported, so only it carries the sampler.
  const auto timeseries =
      optimized ? bench::start_timeseries(cluster, args) : nullptr;
  const auto& names = cluster.directory().site_names;

  // One busy "inventory dashboard" user: a single origin concentrates the
  // flash crowd on one admission window, so the offered rate sits several
  // multiples above what one window can carry when every COUNT walks the
  // tree — the regime the cache and batcher exist for.
  const auto origin = cluster.nodes_in_site(0)[1];
  const auto& origin_site = names[0];

  const auto& types = bench::instance_types();
  qplane::ArrivalShape shape;
  shape.rate_qps = rate_qps;
  shape.zipf_skew = 1.0;

  RunStats stats;
  stats.label = optimized ? "cache+batch" : "baseline";
  util::Samples latency_us;
  qplane::OpenLoopDriver driver(
      cluster.engine(), shape, types.size(), [&](std::size_t rank) {
        const auto sql = "SELECT COUNT FROM " + origin_site + " WHERE instance = '" +
                         types[rank] + "'";
        ++stats.offered;
        cluster.node(origin).query().execute_sql(
            sql, [&stats, &latency_us](const core::QueryOutcome& o) {
              if (o.shed) {
                ++stats.shed;
                return;
              }
              if (o.satisfied) {
                ++stats.satisfied;
                latency_us.add(static_cast<double>(o.latency().as_micros()));
              }
            });
      });
  driver.run(util::SimTime::seconds(duration_s));
  cluster.run_for(util::SimTime::seconds(duration_s + 2.0));  // horizon + drain
  cluster.run();

  stats.sustained_qps =
      static_cast<std::int64_t>(static_cast<double>(stats.satisfied) / duration_s);
  if (latency_us.count() > 0) {
    stats.p50_us = static_cast<std::int64_t>(latency_us.percentile(50));
    stats.p99_us = static_cast<std::int64_t>(latency_us.percentile(99));
    stats.p999_us = static_cast<std::int64_t>(latency_us.percentile(99.9));
  }
  auto& fed_metrics = cluster.metrics()->fed();
  const auto hits = fed_metrics.counter<"qplane.cache_hits">().value();
  const auto misses = fed_metrics.counter<"qplane.cache_misses">().value();
  if (hits + misses > 0) {
    stats.cache_hit_rate_pct = static_cast<std::int64_t>(100 * hits / (hits + misses));
  }
  if (stats.offered > 0) {
    stats.shed_rate_pct = static_cast<std::int64_t>(100 * stats.shed / stats.offered);
  }
  stats.probe_walks = fed_metrics.counter<"qplane.probe_walks">().value();
  stats.probes_coalesced = fed_metrics.counter<"qplane.probes_coalesced">().value();
  if (optimized) {
    bench::dump_observability(cluster, timeseries.get(), args);
  }
  return stats;
}

void print_row(const RunStats& s) {
  std::printf("%12s %9llu %9llu %9llu %10lld %8lld %8lld %8lld %7lld%% %6lld%%\n",
              s.label.c_str(), static_cast<unsigned long long>(s.offered),
              static_cast<unsigned long long>(s.satisfied),
              static_cast<unsigned long long>(s.shed),
              static_cast<long long>(s.sustained_qps), static_cast<long long>(s.p50_us),
              static_cast<long long>(s.p99_us), static_cast<long long>(s.p999_us),
              static_cast<long long>(s.cache_hit_rate_pct),
              static_cast<long long>(s.shed_rate_pct));
}

void append_series(std::string& out, const RunStats& s) {
  out += "{";
  obs::json::append_key(out, "config");
  obs::json::append_string(out, s.label);
  out += ",";
  obs::json::append_key(out, "offered");
  obs::json::append_uint(out, s.offered);
  out += ",";
  obs::json::append_key(out, "satisfied");
  obs::json::append_uint(out, s.satisfied);
  out += ",";
  obs::json::append_key(out, "shed");
  obs::json::append_uint(out, s.shed);
  out += ",";
  obs::json::append_key(out, "sustained_qps");
  obs::json::append_int(out, s.sustained_qps);
  out += ",";
  obs::json::append_key(out, "p50_us");
  obs::json::append_int(out, s.p50_us);
  out += ",";
  obs::json::append_key(out, "p99_us");
  obs::json::append_int(out, s.p99_us);
  out += ",";
  obs::json::append_key(out, "p999_us");
  obs::json::append_int(out, s.p999_us);
  out += ",";
  obs::json::append_key(out, "cache_hit_rate_pct");
  obs::json::append_int(out, s.cache_hit_rate_pct);
  out += ",";
  obs::json::append_key(out, "shed_rate_pct");
  obs::json::append_int(out, s.shed_rate_pct);
  out += ",";
  obs::json::append_key(out, "probe_walks");
  obs::json::append_uint(out, s.probe_walks);
  out += ",";
  obs::json::append_key(out, "probes_coalesced");
  obs::json::append_uint(out, s.probes_coalesced);
  out += "}";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, {.json = true});
  bench::print_header("Throughput", "sustained query QPS — query-plane off vs on");

  const std::size_t per_site = args.small ? 40 : 1250;
  const double rate_qps = 12000.0;
  const double duration_s = args.small ? 5.0 : 10.0;

  std::printf("\n8 sites x %zu nodes, offered %.0f qps (Zipf s=1.0 over %zu types), %.0fs\n",
              per_site, rate_qps, bench::instance_types().size(), duration_s);
  std::printf("%12s %9s %9s %9s %10s %8s %8s %8s %8s %7s\n", "config", "offered", "satisfied",
              "shed", "sustained", "p50us", "p99us", "p999us", "hit%", "shed%");

  const auto off = run_config(false, args, per_site, rate_qps, duration_s);
  print_row(off);
  const auto on = run_config(true, args, per_site, rate_qps, duration_s);
  print_row(on);

  const double speedup = off.sustained_qps > 0
                             ? static_cast<double>(on.sustained_qps) /
                                   static_cast<double>(off.sustained_qps)
                             : 0.0;
  std::printf("\nspeedup: %.1fx sustained QPS (p99 %lldus -> %lldus)\n", speedup,
              static_cast<long long>(off.p99_us), static_cast<long long>(on.p99_us));
  std::printf(
      "expected shape: baseline saturates at window/walk-time and sheds the rest;\n"
      "cache+batch absorbs the crowd at the gateway — >=5x sustained at equal p99.\n");

  if (!args.json_path.empty()) {
    std::string out = "{";
    obs::json::append_key(out, "bench");
    obs::json::append_string(out, "throughput");
    out += ",";
    obs::json::append_key(out, "seed");
    obs::json::append_uint(out, args.seed);
    out += ",";
    obs::json::append_key(out, "sites");
    obs::json::append_uint(out, 8);
    out += ",";
    obs::json::append_key(out, "nodes");
    obs::json::append_uint(out, per_site * 8);
    out += ",";
    // Headline number first so trend checks can grep the first match:
    // the optimized configuration's sustained rate.
    obs::json::append_key(out, "sustained_qps");
    obs::json::append_int(out, on.sustained_qps);
    out += ",";
    obs::json::append_key(out, "speedup_x100");
    obs::json::append_int(out, static_cast<std::int64_t>(speedup * 100));
    out += ",";
    obs::json::append_key(out, "series");
    out += "[";
    append_series(out, off);
    out += ",";
    append_series(out, on);
    out += "]}\n";
    bench::write_output(args.json_path, out, "bench summary");
  }
  return 0;
}
