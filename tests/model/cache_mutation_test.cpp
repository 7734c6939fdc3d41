// Mutation self-test for the query plane's answer caching.  Unlike the
// aggregate mutation (a compile-time model bias), this one corrupts the
// SIMULATOR at runtime: with RBAY_MODEL_MUTATE_CACHE set, every
// qplane::TreeSizes instance serves exactly one expired entry — with its
// honest, over-TTL age — instead of evicting it.  The oracle's cached
// answer rule (count == model AND staleness <= cache TTL) must catch
// the serve, shrink the workload to a small counterexample, and export
// a scenario whose replay (same process, so its caches are armed too)
// fails on a `staleness-le` / `count` expect line.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "model/harness.hpp"
#include "tools/scenario.hpp"

namespace rbay::model {
namespace {

WorkloadSpec cache_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.sites = 2;
  spec.per_site = 3;
  spec.rounds = 2;
  spec.mutations_per_round = 4;
  spec.observations_per_round = 3;
  return spec;
}

/// Divergences the scenario DSL can assert: the cached-answer rules
/// export `expect staleness-le` and `expect count`, so only those kinds
/// guarantee the replayed counterexample actually fails.
bool expressible(const Divergence& d) {
  return d.found && (d.kind == "staleness" || d.kind == "count");
}

TEST(CacheMutationOracle, ExpiredCacheServeIsCaughtShrunkAndReplayed) {
  ASSERT_EQ(::setenv("RBAY_MODEL_MUTATE_CACHE", "1", 1), 0);

  // Each cache arms once per instance and a SELECT's probes can absorb
  // the serve silently (selects carry no staleness contract), so which
  // seed funnels an expired entry into a COUNT is an empirical matter —
  // scan until one is caught in an expressible way.
  std::optional<Workload> found;
  for (std::uint64_t seed = 1; seed <= 20 && !found; ++seed) {
    const auto workload = generate_workload(cache_spec(seed));
    if (expressible(run_differential(workload).divergence)) found = workload;
  }
  ASSERT_TRUE(found.has_value())
      << "no seed in 1..20 funneled the expired-cache serve into a COUNT";
  const auto& workload = *found;

  auto still_fails = [&workload](const std::vector<Op>& ops) {
    Workload candidate = workload;
    candidate.ops = ops;
    return expressible(run_differential(candidate).divergence);
  };
  int probes = 0;
  const auto minimal = shrink_ops(workload.ops, still_fails, 80, &probes);
  ASSERT_FALSE(minimal.empty());
  EXPECT_LT(minimal.size(), workload.ops.size())
      << "shrinking removed nothing from " << workload.ops.size() << " ops";

  Workload shrunk = workload;
  shrunk.ops = minimal;
  const auto final_run = run_differential(shrunk);
  ASSERT_TRUE(expressible(final_run.divergence)) << final_run.summary;

  const auto dir = artifact_dir_or(::testing::TempDir());
  const auto artifacts =
      write_artifacts(dir, "cache_mutation", workload, minimal, final_run.divergence);
  ASSERT_TRUE(artifacts.ok()) << artifacts.error();

  // The exported expects carry the (correct) model's staleness contract;
  // the replay runs in this process, so its caches are armed with the
  // same mutation and must trip at least one of those lines.
  RunOptions options;
  options.export_scenario = true;
  const auto exported = run_differential(shrunk, options);
  ASSERT_FALSE(exported.scenario.empty());
  const auto replay = tools::run_scenario(exported.scenario);
  ASSERT_FALSE(replay.ok()) << "replay of the counterexample passed even though "
                               "its answer caches are mutated";
}

}  // namespace
}  // namespace rbay::model
