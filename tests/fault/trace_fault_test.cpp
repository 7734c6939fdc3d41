// Tracing under faults: a traced query whose target tree root crashes
// mid-query must survive via site timeout + backoff retry with its causal
// trace intact — spans well-formed, attempt numbers increasing, and the
// critical path crossing the failed attempt's backoff.  A chaos invariant
// failure must ship a failure dump carrying the flight-recorder rings of
// the nodes named in the report plus the full obs registry snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>

#include "core/cluster.hpp"
#include "core/naming.hpp"
#include "fault/invariants.hpp"
#include "obs/causal.hpp"
#include "obs/critical_path.hpp"

namespace rbay::fault {
namespace {

using util::SimTime;

core::ClusterConfig traced_config(std::uint64_t seed, SimTime heartbeat) {
  core::ClusterConfig config;
  config.seed = seed;
  config.metrics = true;
  config.node.scribe.aggregation_interval = SimTime::millis(100);
  config.node.scribe.heartbeat_interval = heartbeat;
  config.node.query.max_attempts = 8;
  return config;
}

void build_gpu_cluster(core::RBayCluster& cluster, std::size_t per_site) {
  cluster.add_tree_spec(core::TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(per_site);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.node(i).post("GPU", true).ok());
  }
  cluster.finalize();
  cluster.run_for(SimTime::seconds(1));
}

/// Index of the live root of the (first tree spec, site 0) topic.
std::size_t root_of_first_tree(core::RBayCluster& cluster) {
  const auto topic = core::site_topic(cluster.tree_specs().front().canonical,
                                      cluster.directory().site_names[0]);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (!cluster.overlay().is_failed(i) && cluster.node(i).scribe().is_root_of(topic)) {
      return i;
    }
  }
  ADD_FAILURE() << "no live root found";
  return 0;
}

TEST(TraceFault, QuerySurvivesMidQueryRootCrashWithTraceIntact) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 7ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    core::RBayCluster cluster{traced_config(seed, SimTime::millis(100))};
    build_gpu_cluster(cluster, 10);

    const auto root = root_of_first_tree(cluster);
    const std::size_t origin = root == 0 ? 1 : 0;

    // Crash the tree root 200 us in: the probe (and any anycast) routed to
    // it is still in flight (0.25 ms one-way intra-site), so attempt 1
    // loses the site, times out, and the query must retry after backoff —
    // by which time the heartbeat has repaired the tree.
    bool done = false;
    core::QueryOutcome out;
    cluster.node(origin).query().execute_sql(
        "SELECT 2 FROM * WHERE GPU = true", [&](const core::QueryOutcome& o) {
          out = o;
          done = true;
        });
    cluster.engine().schedule(SimTime::micros(200),
                              [&cluster, root] { cluster.overlay().fail_node(root); });
    cluster.run_for(SimTime::seconds(30));
    cluster.run();

    ASSERT_TRUE(done) << "query never completed";
    ASSERT_TRUE(out.satisfied) << out.error;
    EXPECT_GE(out.attempts, 2) << "root crash did not force a retry";

    const auto& log = cluster.metrics()->causal_log();
    const auto trace_id = log.trace_id_for(to_string(out.query_id));
    ASSERT_NE(trace_id, 0u);
    const auto events = log.trace_events(trace_id);
    ASSERT_FALSE(events.empty());

    // Spans stay well-formed across the crash: every parent resolves, time
    // is monotone, and the attempt number climbs to the outcome's count.
    std::set<std::uint64_t> spans;
    for (const auto* ev : events) spans.insert(ev->span_id);
    int max_attempt = 0;
    int retries = 0;
    SimTime prev = SimTime::zero();
    for (const auto* ev : events) {
      if (ev->parent_span_id != 0) {
        EXPECT_EQ(spans.count(ev->parent_span_id), 1u)
            << ev->what << " has an unknown parent span";
      }
      EXPECT_GE(ev->at, prev);
      prev = ev->at;
      max_attempt = std::max(max_attempt, static_cast<int>(ev->attempt));
      if (std::string_view(ev->what) == "query.backoff_retry") ++retries;
    }
    EXPECT_EQ(max_attempt, out.attempts);
    EXPECT_EQ(retries, out.attempts - 1);

    // The critical path covers the failed attempt: it runs through the
    // site timeout and the backoff retry, and still telescopes exactly.
    const auto path = obs::analyze_critical_path(log, to_string(out.query_id));
    EXPECT_TRUE(path.complete);
    EXPECT_TRUE(path.crosses("query.backoff_retry")) << path.to_string();
    EXPECT_EQ(path.total, out.latency());
    EXPECT_EQ(path.segment_sum(), path.total);
  }
}

TEST(TraceFault, FailureDumpCarriesFlightRecorderAndRegistry) {
  core::RBayCluster cluster{traced_config(5, SimTime::zero())};
  build_gpu_cluster(cluster, 8);

  // No heartbeat: crashing the tree root leaves live members with no live
  // root, a permanent tree-reachability violation.
  const auto root = root_of_first_tree(cluster);
  cluster.overlay().fail_node(root);
  cluster.run_for(SimTime::seconds(1));
  cluster.run();

  const auto report = check_all(cluster);
  ASSERT_FALSE(report.ok());
  const auto named = report.named_nodes();
  ASSERT_FALSE(named.empty());

  const auto dump = failure_dump(cluster, report);
  EXPECT_NE(dump.find("chaos failure dump"), std::string::npos);
  EXPECT_NE(dump.find("invariant violation"), std::string::npos);
  // One flight-recorder section per named node, with real ring contents.
  for (const auto idx : named) {
    EXPECT_NE(dump.find("flight recorder: node " + std::to_string(idx)),
              std::string::npos)
        << "node " << idx << " named in the report but missing from the dump";
  }
  EXPECT_NE(dump.find("flight recorder endpoint"), std::string::npos);
  EXPECT_NE(dump.find("t="), std::string::npos);
  // The registry snapshot rides along so the failure is diagnosable alone.
  EXPECT_NE(dump.find("--- obs registry ---"), std::string::npos);
  EXPECT_NE(dump.find("\"federation\""), std::string::npos);
}

TEST(TraceFault, FailureDumpSaysWhenMetricsAreOff) {
  core::ClusterConfig config;
  config.seed = 5;
  config.metrics = false;
  core::RBayCluster cluster{config};
  cluster.populate(3);
  cluster.finalize();

  InvariantReport report;
  report.add("test", "synthetic violation", {0});
  const auto dump = failure_dump(cluster, report);
  EXPECT_NE(dump.find("no obs registry attached"), std::string::npos);
}

}  // namespace
}  // namespace rbay::fault
