// Open-loop workload driver: Poisson arrival counts, Zipf popularity
// skew, and the arrival horizon.
#include <gtest/gtest.h>

#include <vector>

#include "qplane/workload_driver.hpp"
#include "sim/engine.hpp"
#include "util/sim_time.hpp"

namespace rbay::qplane {
namespace {

using util::SimTime;

TEST(OpenLoopDriver, PoissonArrivalCountMatchesRate) {
  sim::Engine engine(3);
  ArrivalShape shape;
  shape.rate_qps = 200.0;
  std::uint64_t seen = 0;
  OpenLoopDriver driver(engine, shape, 10, [&](std::size_t) { ++seen; });
  driver.run(SimTime::seconds(50));
  engine.run();
  // 10000 expected arrivals, sigma = 100: a 5-sigma band.
  EXPECT_GT(seen, 9500u);
  EXPECT_LT(seen, 10500u);
  EXPECT_EQ(seen, driver.arrivals());
}

TEST(OpenLoopDriver, ZipfPopularityFavorsLowRanks) {
  sim::Engine engine(4);
  ArrivalShape shape;
  shape.rate_qps = 500.0;
  shape.zipf_skew = 1.0;
  std::vector<std::uint64_t> per_rank(50, 0);
  OpenLoopDriver driver(engine, shape, per_rank.size(),
                        [&](std::size_t rank) { ++per_rank.at(rank); });
  driver.run(SimTime::seconds(40));
  engine.run();
  // Rank 0 is the hottest and dominates the tail by the Zipf ratio.
  for (std::size_t r = 1; r < per_rank.size(); ++r) {
    EXPECT_GE(per_rank[0], per_rank[r]) << "rank " << r;
  }
  EXPECT_GT(per_rank[0], 5 * per_rank[20]);
}

TEST(OpenLoopDriver, ArrivalsStopAtTheHorizon) {
  sim::Engine engine(6);
  ArrivalShape shape;
  shape.rate_qps = 100.0;
  std::uint64_t seen = 0;
  OpenLoopDriver driver(engine, shape, 3, [&](std::size_t) { ++seen; });
  driver.run(SimTime::seconds(2));
  engine.run();
  const auto at_horizon = seen;
  EXPECT_GT(at_horizon, 0u);
  engine.run_for(SimTime::seconds(10));
  engine.run();
  EXPECT_EQ(seen, at_horizon) << "no arrivals may fire past the horizon";
}

}  // namespace
}  // namespace rbay::qplane
