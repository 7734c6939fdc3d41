// Worker-count determinism matrix for the sharded engine
// (docs/PARALLEL_ENGINE.md).
//
// Contract: a federation run on the sharded schedule produces the SAME
// bytes — final registry snapshot, time-series JSON, and query/output
// transcript — no matter how many worker threads execute it.  The
// reference is threads=1 (the same per-shard event sequences executed on
// the calling thread); 2, 4, and 8 workers must match it
// byte for byte across an eight-seed matrix of a churn + weather + query
// workload.
//
// This is the load-bearing test of the parallel engine: any data race or
// interleaving-dependent ordering in the windowed executor shows up here
// as a transcript diff long before it shows up as a crash.

#include "tools/scenario.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace rbay::tools {
namespace {

/// One full federation workout: three sites, churn via a timed fault
/// schedule, link weather (duplication, reordering, a gray link), the
/// time-series sampler, monitors, and a query mix spanning COUNT and
/// reservation flows.  Everything that feeds the registry and the
/// transcript is exercised.
std::string workload(std::uint64_t seed) {
  std::string s;
  s += "topology uniform 3 0.5 40\n";
  s += "seed " + std::to_string(seed) + "\n";
  s += "aggregation 200\n";
  s += "heartbeat 250\n";
  s += "timeseries 100\n";
  s += "tree GPU = true\n";
  s += "tree disk > 50\n";
  s += "nodes Site0 6\n";
  s += "nodes Site1 6\n";
  s += "nodes Site2 6\n";
  s += "post * GPU true\n";
  s += "monitor Site0 disk walk 80 10 100 5 150\n";
  s += "finalize\n";
  s += "run 2s\n";
  s += "fault-schedule <<EOF\n";
  s += "at 0ms weather Site1 Site2 duplicate 1.0\n";
  s += "at 10ms weather Site0 Site2 reorder 0.7 20ms\n";
  s += "at 20ms weather Site0 Site1 gray 3\n";
  s += "at 100ms crash Site2 1\n";
  s += "at 900ms recover Site2 1\n";
  s += "at 1200ms crash Site0 3\n";
  s += "at 2500ms recover Site0 3\n";
  s += "at 3500ms weather * * clear\n";
  s += "EOF\n";
  s += "query Site1 SELECT COUNT FROM * WHERE GPU = true\n";
  s += "expect satisfied\n";
  s += "run 2s\n";
  s += "query Site2 SELECT 2 FROM Site0 WHERE GPU = true\n";
  s += "expect satisfied\n";
  s += "release\n";
  s += "run 1s\n";
  s += "query Site0 SELECT COUNT FROM * WHERE disk > 50\n";
  s += "expect satisfied\n";
  s += "run 1s\n";
  s += "stats\n";
  return s;
}

ScenarioOptions engine_options(unsigned threads) {
  ScenarioOptions options;
  options.metrics = true;
  options.engine.threads = threads;
  return options;
}

TEST(ParallelEquivalence, ShardedRunIsByteIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string text = workload(seed);
    const auto reference = run_scenario(text, engine_options(1));
    ASSERT_TRUE(reference.ok()) << reference.error();
    ASSERT_FALSE(reference.value().metrics_json.empty());
    ASSERT_FALSE(reference.value().timeseries_json.empty());
    ASSERT_FALSE(reference.value().output.empty());

    for (const unsigned threads : {2u, 4u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const auto parallel = run_scenario(text, engine_options(threads));
      ASSERT_TRUE(parallel.ok()) << parallel.error();
      EXPECT_EQ(parallel.value().queries, reference.value().queries);
      EXPECT_EQ(parallel.value().queries_satisfied,
                reference.value().queries_satisfied);
      // The three artifacts, byte for byte: transcript, registry, samples.
      EXPECT_EQ(parallel.value().output, reference.value().output);
      EXPECT_EQ(parallel.value().metrics_json, reference.value().metrics_json);
      EXPECT_EQ(parallel.value().timeseries_json, reference.value().timeseries_json);
    }
  }
}

TEST(ParallelEquivalence, RepeatedShardedRunsAreByteIdentical) {
  // Determinism within a thread count, not just across counts: running the
  // same workload twice at 4 threads gives identical bytes — no wall-clock
  // or address-ordering leakage.
  const std::string text = workload(23);
  const auto a = run_scenario(text, engine_options(4));
  const auto b = run_scenario(text, engine_options(4));
  ASSERT_TRUE(a.ok()) << a.error();
  ASSERT_TRUE(b.ok()) << b.error();
  EXPECT_EQ(a.value().output, b.value().output);
  EXPECT_EQ(a.value().metrics_json, b.value().metrics_json);
  EXPECT_EQ(a.value().timeseries_json, b.value().timeseries_json);
}

TEST(ParallelEquivalence, ThreadsDirectiveSelectsTheShardedEngine) {
  // `threads N` in the scenario text takes effect (and wins over the
  // options default).  The run must still satisfy its expectations.
  std::string text = "threads 4\n" + workload(29);
  const auto report = run_scenario(text);  // default options: one worker
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report.value().queries_satisfied, 3);
}

TEST(ParallelEquivalence, ThreadsDirectiveMustPrecedeNodes) {
  const auto report = run_scenario(
      "topology single\nseed 1\ntree GPU = true\nnodes Local 2\nthreads 2\n");
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().find("threads"), std::string::npos) << report.error();
}

}  // namespace
}  // namespace rbay::tools
