// Fig. 9 — CDF of composite-query latency for users in Virginia,
// Singapore, and Sao Paulo, varying the 'location' predicate from the
// local site to all eight (onGet runs on every candidate).
//
// Paper workload (§IV.C): every site issues queries; each asks for three
// attributes focusing on one instance type; sites in the FROM clause grow
// 1 → 8.  Expected shape: single-site queries are fast and uniform;
// multi-site latency is bounded by the RTT to the most remote requested
// site; Singapore-origin users see the highest multi-site latencies.

#include "bench_common.hpp"

using namespace rbay;
using bench::EvalFederation;

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, {.json = true});
  bench::print_header("Fig. 9", "CDF of composite query latencies (1-site .. 8-site)");

  EvalFederation fed{args.small ? std::size_t{40} : std::size_t{150}, args.seed,
                     /*with_password=*/true, /*metrics=*/args.wants_metrics()};
  auto& cluster = fed.cluster;
  const auto timeseries = bench::start_timeseries(cluster, args);
  const auto& names = cluster.directory().site_names;
  const int queries = args.small ? 20 : 100;

  bench::BenchJson summary;
  summary.bench = "fig9";
  summary.seed = args.seed;
  summary.sites = names.size();
  summary.nodes = cluster.size();

  const std::vector<std::string> origins = {"Virginia", "Singapore", "SaoPaulo"};
  for (const auto& origin_name : origins) {
    const auto origin_site = *cluster.directory().site_by_name(origin_name);
    const auto origin_node = cluster.nodes_in_site(origin_site)[1];

    std::printf("\n--- origin: %s ---\n", origin_name.c_str());
    std::printf("%8s %9s %9s %9s %9s %9s %9s %10s\n", "sites", "p10", "p25", "p50", "p75",
                "p90", "p99", "satisfied");

    for (std::size_t n_sites = 1; n_sites <= names.size(); ++n_sites) {
      // FROM clause: origin first, then the remaining sites in Table II
      // order — so "5 sites" from Virginia already spans US/EU/Asia.
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
        const auto outcome = fed.run_query(
            origin_node, "SELECT 1 FROM " + from + " WHERE instance = '" + type +
                             "' AND CPU_utilization < 0.95 AND Matlab != 'none' "
                             "WITH \"rbay\"");
        latency.add(outcome.latency().as_millis());
        latency_us.add(static_cast<double>(outcome.latency().as_micros()));
        if (outcome.satisfied) ++satisfied;
      }
      summary.add(origin_name, n_sites, queries, satisfied, latency_us);
      std::printf("%8zu %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %9.0f%%\n", n_sites,
                  latency.percentile(10), latency.percentile(25), latency.percentile(50),
                  latency.percentile(75), latency.percentile(90), latency.percentile(99),
                  100.0 * satisfied / queries);
    }
  }
  std::printf(
      "\nexpected shape: ~flat single-site CDFs; multi-site latency bounded by the RTT\n"
      "to the farthest requested site; Singapore origins shifted right vs Virginia/SP.\n");
  bench::dump_observability(cluster, timeseries.get(), args);
  summary.dump(args.json_path);
  return 0;
}
