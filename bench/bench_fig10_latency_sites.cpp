// Fig. 10 — Average latency (± stddev) for queries issued from every
// locale as the number of requested sites grows 1 → 8.
//
// Paper claims (§IV.C): local-site discovery < 200 ms; multi-site ~600 ms;
// latency grows while farther regions enter the FROM clause, then
// stabilizes at 5-8 sites because the maximum RTT is already included —
// multi-site queries run in parallel, so the user-observed latency is the
// RTT to the most remote site plus local query time.

#include "bench_common.hpp"

using namespace rbay;
using bench::EvalFederation;

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, {.json = true});
  bench::print_header("Fig. 10", "avg query latency vs #requesting sites, per origin locale");

  EvalFederation fed{args.small ? std::size_t{40} : std::size_t{150}, args.seed,
                     /*with_password=*/true, /*metrics=*/args.wants_metrics()};
  auto& cluster = fed.cluster;
  const auto timeseries = bench::start_timeseries(cluster, args);
  const auto& names = cluster.directory().site_names;
  const int queries = args.small ? 10 : 50;

  bench::BenchJson summary;
  summary.bench = "fig10";
  summary.seed = args.seed;
  summary.sites = names.size();
  summary.nodes = cluster.size();

  std::printf("%-12s", "origin");
  for (std::size_t n = 1; n <= names.size(); ++n) {
    std::printf("     %zu-site     ", n);
  }
  std::printf("\n");

  for (const auto& origin_name : names) {
    const auto origin_site = *cluster.directory().site_by_name(origin_name);
    const auto origin_node = cluster.nodes_in_site(origin_site)[1];
    std::printf("%-12s", origin_name.c_str());

    for (std::size_t n_sites = 1; n_sites <= names.size(); ++n_sites) {
      std::string from = origin_name;
      std::size_t added = 1;
      for (const auto& name : names) {
        if (added >= n_sites) break;
        if (name == origin_name) continue;
        from += ", " + name;
        ++added;
      }
      util::Samples latency;
      util::Samples latency_us;
      int satisfied = 0;
      for (int q = 0; q < queries; ++q) {
        const auto& type = bench::gaussian_instance_type(cluster.engine().rng());
        const auto outcome =
            fed.run_query(origin_node, "SELECT 1 FROM " + from + " WHERE instance = '" + type +
                                           "' AND CPU_utilization < 0.95 AND Matlab != 'none' "
                                           "WITH \"rbay\"");
        latency.add(outcome.latency().as_millis());
        latency_us.add(static_cast<double>(outcome.latency().as_micros()));
        if (outcome.satisfied) ++satisfied;
      }
      summary.add(origin_name, n_sites, queries, satisfied, latency_us);
      std::printf(" %6.1f±%-6.1f", latency.mean(), latency.stddev());
    }
    std::printf("\n");
  }
  std::printf(
      "\n(values in ms, virtual time)\n"
      "expected shape: fast local column; growth over 2..5 sites; plateau at 5-8 sites\n"
      "once the most distant region's RTT is already part of the parallel fan-out.\n");
  bench::dump_observability(cluster, timeseries.get(), args);
  summary.dump(args.json_path);
  return 0;
}
