#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace rbay::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  EXPECT_THROW(rng.uniform(0), ContractError);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng{9};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng{11};
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, GaussianMomentsAreSane) {
  Rng rng{13};
  double sum = 0, ss = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian(5.0, 2.0);
    sum += g;
    ss += g * g;
  }
  const double mean = sum / n;
  const double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{17};
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
  EXPECT_THROW(rng.exponential(0.0), ContractError);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng{19};
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identical
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ZipfStaysInRange) {
  Rng rng{23};
  for (int i = 0; i < 5'000; ++i) {
    const auto r = rng.zipf(100, 1.2);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 100u);
  }
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng{29};
  int low = 0;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) {
    if (rng.zipf(1000, 1.5) <= 10) ++low;
  }
  // With s=1.5 the first ten ranks carry well over half the mass.
  EXPECT_GT(low, n / 2);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{31};
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ChanceProbabilityRoughlyHolds) {
  Rng rng{37};
  int hits = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngStream, StreamsAreDeterministicAndDistinct) {
  EXPECT_EQ(Rng::stream(42, 1).next_u64(), Rng::stream(42, 1).next_u64());
  EXPECT_NE(Rng::stream(42, 1).next_u64(), Rng::stream(42, 2).next_u64());
  EXPECT_NE(Rng::stream(42, 1).next_u64(), Rng::stream(43, 1).next_u64());
  // Stream 0 is not the base sequence: the sharded engine reserves the
  // legacy constructor stream for the control shard.
  EXPECT_NE(Rng::stream(42, 0).next_u64(), Rng{42}.next_u64());
}

}  // namespace
}  // namespace rbay::util
