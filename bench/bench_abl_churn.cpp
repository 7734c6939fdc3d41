// Ablation 4 — behaviour under node churn (the paper's future-work axis,
// §VI: "evaluate RBay's performance under different levels of churn").
//
// We run a single-site federation with tree repair enabled, kill a growing
// fraction of nodes mid-operation, and measure (a) how long until every
// surviving member's parent chain reaches the root again and (b) query
// success rate before repair vs after.

#include "bench_common.hpp"

using namespace rbay;

namespace {

/// True when every subscribed survivor can walk parents to the tree root.
bool tree_repaired(core::RBayCluster& cluster, const core::TreeSpec& spec) {
  const auto topic = cluster.node(0).topic_of(spec);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.overlay().is_failed(i)) continue;
    auto& scribe = cluster.node(i).scribe();
    if (!scribe.subscribed(topic)) continue;
    std::size_t at = i;
    int steps = 0;
    for (;;) {
      auto parent = cluster.node(at).scribe().parent_of(topic);
      if (!parent) {
        if (!cluster.node(at).scribe().is_root_of(topic)) return false;
        break;
      }
      const auto next = cluster.index_of(parent->id);
      if (cluster.overlay().is_failed(next)) return false;
      at = next;
      if (++steps > 64) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  bench::print_header("Ablation 4", "tree repair and query availability under churn");

  const int queries = args.small ? 10 : 30;
  std::printf("%8s %14s %18s %18s %16s\n", "kill %", "repair time", "queries ok (t+0)",
              "queries ok (rep.)", "repaired?");

  for (const double kill_fraction : {0.05, 0.10, 0.20, 0.30}) {
    // Single-site federation with repair enabled.
    core::ClusterConfig config;
    config.topology = net::Topology::single_site();
    config.seed = args.seed;
    config.node.scribe.aggregation_interval = util::SimTime::millis(250);
    config.node.scribe.heartbeat_interval = util::SimTime::millis(500);
    config.node.query.max_attempts = 3;
    // The obs flags instrument the harshest (last) kill fraction.
    const bool instrumented = kill_fraction == 0.30;
    config.metrics = instrumented && args.wants_metrics();

    // A thin EvalFederation equivalent on one site.
    core::RBayCluster cluster{config};
    cluster.add_tree_spec(core::TreeSpec::from_predicate(
        {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.95}}));
    const std::size_t n = args.small ? 60 : 200;
    for (std::size_t i = 0; i < n; ++i) cluster.add_node(0);
    for (std::size_t i = 0; i < n; ++i) {
      (void)cluster.node(i).post("CPU_utilization", cluster.engine().rng().uniform_double() * 0.9);
      (void)cluster.node(i).post("Matlab", "9.0");
    }
    cluster.finalize();
    const auto timeseries =
        instrumented ? bench::start_timeseries(cluster, args) : nullptr;
    cluster.run_for(util::SimTime::seconds(3));
    const auto& spec = cluster.tree_specs()[0];

    // Kill a fraction (never the gateway, which hosts remote query entry).
    const auto kills = static_cast<std::size_t>(kill_fraction * static_cast<double>(n));
    std::size_t killed = 0;
    while (killed < kills) {
      const auto victim = 1 + cluster.engine().rng().uniform(n - 1);
      if (!cluster.overlay().is_failed(victim)) {
        cluster.overlay().fail_node(victim);
        ++killed;
      }
    }

    // Immediate query success (tree still broken).
    auto run_queries = [&](int count) {
      int ok = 0;
      for (int i = 0; i < count; ++i) {
        std::size_t from;
        do {
          from = cluster.engine().rng().uniform(n);
        } while (cluster.overlay().is_failed(from));
        core::QueryOutcome outcome;
        cluster.node(from).query().execute_sql(
            "SELECT 1 FROM * WHERE CPU_utilization < 0.95",
            [&](const core::QueryOutcome& o) { outcome = o; });
        cluster.run();
        if (outcome.satisfied) {
          ++ok;
          cluster.node(from).query().release(outcome);
          cluster.run();
        }
      }
      return ok;
    };
    const int ok_before = run_queries(queries);

    // Let heartbeats detect and repair; measure convergence time.
    const auto repair_start = cluster.engine().now();
    double repair_seconds = -1;
    for (int tick = 0; tick < 120; ++tick) {
      cluster.run_for(util::SimTime::millis(500));
      if (tree_repaired(cluster, spec)) {
        repair_seconds = (cluster.engine().now() - repair_start).as_seconds();
        break;
      }
    }
    const int ok_after = run_queries(queries);
    if (instrumented) bench::dump_observability(cluster, timeseries.get(), args);

    std::printf("%7.0f%% %12.1f s %15d/%-2d %15d/%-2d %16s\n", kill_fraction * 100,
                repair_seconds, ok_before, queries, ok_after, queries,
                repair_seconds >= 0 ? "yes" : "NO");
  }
  std::printf(
      "\nexpected shape: repair converges within a few heartbeat periods even at 30%%\n"
      "churn; query success dips right after the kill (broken DFS paths) and\n"
      "recovers to ~100%% once trees re-form.\n");
  return 0;
}
