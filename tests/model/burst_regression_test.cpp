#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "model/harness.hpp"
#include "util/contract.hpp"

namespace rbay::model {
namespace {

/// Write bursts and long outages (WorkloadSpec::bursts): same-instant posts
/// on one node that cross a tree predicate, and crashes that outlast the
/// heartbeat miss budget.  Before Join/Leave carried attachment episodes,
/// a burst's Leave could overtake its own re-Join at the parent, which
/// then dropped a child that believed it was attached (an under-count
/// that never healed), and a JoinAck for an abandoned join left a phantom
/// child behind (an over-count).
class BurstSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BurstSeeds, SimMatchesReferenceModelUnderBursts) {
  WorkloadSpec spec;
  spec.seed = GetParam();
  spec.bursts = true;
  const auto workload = generate_workload(spec);
  const auto result = run_differential(workload);
  if (result.divergence.found) {
    const auto shrunk = shrink_divergence(workload, 60);
    const auto dir = artifact_dir_or(::testing::TempDir());
    const auto artifacts = write_artifacts(dir, "burst_seed" + std::to_string(spec.seed),
                                           workload, shrunk.ops, shrunk.divergence);
    FAIL() << result.divergence.to_string() << "\nshrunk to " << shrunk.ops.size()
           << " ops after " << shrunk.probes << " probes: " << shrunk.divergence.to_string()
           << "\ncounterexample: "
           << (artifacts.ok() ? artifacts.value().scenario : artifacts.error());
  }
  EXPECT_GT(result.queries, 0) << result.summary;
}

INSTANTIATE_TEST_SUITE_P(BurstMatrix, BurstSeeds, ::testing::Range<std::uint64_t>(1, 9));

Op burst(std::size_t node, const std::string& attr, std::vector<store::AttributeValue> values) {
  Op op;
  op.kind = OpKind::WriteBurst;
  op.node = node;
  op.attr = attr;
  op.burst = std::move(values);
  return op;
}

Op count(std::size_t origin, const std::string& sql) {
  Op op;
  op.kind = OpKind::Count;
  op.node = origin;
  auto parsed = query::parse_query(sql);
  RBAY_REQUIRE(parsed.ok(), "bad regression query");
  op.query = parsed.value();
  return op;
}

/// The pinned schedules below are ddmin-shrunk counterexamples of the
/// burst matrix's generator (seeds 147 and 24, 3 sites x 4 nodes); the
/// seed fixes the initial stores they run over.
Workload pinned(std::uint64_t seed, std::vector<Op> ops) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.bursts = true;
  auto workload = generate_workload(spec);
  workload.ops = std::move(ops);
  return workload;
}

TEST(BurstRegression, StaleLeaveDoesNotUndoNewerJoin) {
  // disk 100 -> 50 -> 50 -> 100 at one instant: n7 leaves the disk>=100
  // tree and re-joins it.  The Leave and the re-Join race to the same
  // parent; the parent must keep n7 whichever lands first.
  const auto workload =
      pinned(147, {burst(7, "disk", {store::AttributeValue{100.0}, store::AttributeValue{50.0},
                                         store::AttributeValue{50.0}, store::AttributeValue{100.0}}),
                   count(7, "SELECT COUNT FROM * WHERE GPU = true AND disk >= 100")});
  const auto result = run_differential(workload);
  EXPECT_FALSE(result.divergence.found) << result.divergence.to_string();
  EXPECT_EQ(result.queries, 1) << result.summary;
}

TEST(BurstRegression, AbandonedJoinLeavesNoPhantomChild) {
  const auto workload = pinned(
      24, {[] {
             Op crash;
             crash.kind = OpKind::Crash;
             crash.node = 5;
             return crash;
           }(),
           burst(4, "disk", {store::AttributeValue{50.0}, store::AttributeValue{100.0},
                                  store::AttributeValue{100.0}, store::AttributeValue{100.0}}),
           count(1, "SELECT COUNT FROM Site1 WHERE model = m2 AND CPU < 0.5")});
  const auto result = run_differential(workload);
  EXPECT_FALSE(result.divergence.found) << result.divergence.to_string();
  EXPECT_EQ(result.queries, 1) << result.summary;
}

}  // namespace
}  // namespace rbay::model
