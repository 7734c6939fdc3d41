#include "util/stats.hpp"

#include <gtest/gtest.h>

#include "util/contract.hpp"
#include "util/rng.hpp"

namespace rbay::util {
namespace {

TEST(OnlineStats, MeanAndStddev) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, SingleValueHasZeroVariance) {
  OnlineStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(OnlineStats, MatchesExactComputationOnRandomData) {
  Rng rng{5};
  OnlineStats s;
  Samples exact;
  for (int i = 0; i < 1'000; ++i) {
    const double v = rng.gaussian(10, 3);
    s.add(v);
    exact.add(v);
  }
  EXPECT_NEAR(s.mean(), exact.mean(), 1e-9);
  EXPECT_NEAR(s.stddev(), exact.stddev(), 1e-9);
}

TEST(Samples, PercentilesOnKnownData) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 0.001);
  EXPECT_NEAR(s.percentile(95), 95.05, 0.001);
}

TEST(Samples, PercentileContractViolations) {
  Samples s;
  EXPECT_THROW((void)s.percentile(50), ContractError);
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1), ContractError);
  EXPECT_THROW((void)s.percentile(101), ContractError);
  EXPECT_DOUBLE_EQ(s.percentile(50), 1.0);
}

TEST(Samples, CdfIsMonotone) {
  Samples s;
  Rng rng{77};
  for (int i = 0; i < 500; ++i) s.add(rng.uniform_double() * 100);
  const auto cdf = s.cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);   // values non-decreasing
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);  // fractions non-decreasing
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Samples, AddAfterSortStaysCorrect) {
  Samples s;
  s.add(5);
  s.add(1);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);  // invalidates sorted cache
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h{0.0, 10.0, 5};
  h.add(0.5);   // bucket 0
  h.add(3.0);   // bucket 1
  h.add(9.99);  // bucket 4
  h.add(-5.0);  // clamped to 0
  h.add(50.0);  // clamped to 4
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(4), 2u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 4.0);
}

TEST(Histogram, RenderShowsAllBuckets) {
  Histogram h{0.0, 4.0, 4};
  h.add(1.0);
  h.add(1.5);
  const auto text = h.render(10);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find('#'), std::string::npos);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(5.0, 5.0, 3), ContractError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractError);
}

}  // namespace
}  // namespace rbay::util
