// The differential oracle on the sharded engine (ctest label `model-par`,
// docs/PARALLEL_ENGINE.md).
//
// Same matrices as differential_test.cpp — default workload and the
// adversarial weather workload — but every cluster runs with
// EngineConfig{threads=4}: four worker threads executing the sharded
// schedule under conservative lookahead.  The centralized reference model
// is worker-count-oblivious, so any divergence here that the one-worker
// matrix does not show is a parallel-engine bug — a lost
// cross-shard message, a barrier ordering error, or a data race that
// corrupted protocol state.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "model/harness.hpp"

namespace rbay::model {
namespace {

WorkloadSpec parallel_spec(std::uint64_t seed, bool weather) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.weather = weather;
  spec.engine.threads = 4;
  return spec;
}

void run_and_expect_no_divergence(const WorkloadSpec& spec, const std::string& base) {
  const auto workload = generate_workload(spec);
  const auto result = run_differential(workload);
  if (result.divergence.found) {
    const auto shrunk = shrink_divergence(workload, 60);
    const auto dir = artifact_dir_or(::testing::TempDir());
    const auto artifacts = write_artifacts(dir, base + std::to_string(spec.seed),
                                           workload, shrunk.ops, shrunk.divergence);
    FAIL() << result.divergence.to_string() << "\nshrunk to " << shrunk.ops.size()
           << " ops after " << shrunk.probes << " probes: "
           << shrunk.divergence.to_string() << "\ncounterexample: "
           << (artifacts.ok() ? artifacts.value().scenario : artifacts.error());
  }
  EXPECT_GT(result.queries, 0) << result.summary;
  EXPECT_GT(result.ops_applied, 0) << result.summary;
}

class ParallelDifferentialSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelDifferentialSeeds, ShardedSimMatchesReferenceModel) {
  run_and_expect_no_divergence(parallel_spec(GetParam(), false), "par_diff_seed");
}

INSTANTIATE_TEST_SUITE_P(SeedMatrix, ParallelDifferentialSeeds,
                         ::testing::Range<std::uint64_t>(1, 9));

class ParallelWeatherSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelWeatherSeeds, ShardedSimMatchesReferenceModelUnderWeather) {
  run_and_expect_no_divergence(parallel_spec(GetParam(), true), "par_weather_seed");
}

INSTANTIATE_TEST_SUITE_P(WeatherMatrix, ParallelWeatherSeeds,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace rbay::model
