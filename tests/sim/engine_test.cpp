#include "sim/engine.hpp"

#include <gtest/gtest.h>

namespace rbay::sim {
namespace {

using util::SimTime;

TEST(Engine, ExecutesInTimestampOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(SimTime::millis(30), [&] { order.push_back(3); });
  engine.schedule(SimTime::millis(10), [&] { order.push_back(1); });
  engine.schedule(SimTime::millis(20), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), SimTime::millis(30));
}

TEST(Engine, TiesBreakInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule(SimTime::millis(5), [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, NestedSchedulingRunsAtRightTime) {
  Engine engine;
  SimTime inner_time = SimTime::zero();
  engine.schedule(SimTime::millis(10), [&] {
    engine.schedule(SimTime::millis(5), [&] { inner_time = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(inner_time, SimTime::millis(15));
}

TEST(Engine, CancelledTimerDoesNotFire) {
  Engine engine;
  bool fired = false;
  auto timer = engine.schedule(SimTime::millis(10), [&] { fired = true; });
  timer.cancel();
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    engine.schedule(SimTime::millis(i * 10), [&] { ++count; });
  }
  engine.run_until(SimTime::millis(50));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(engine.now(), SimTime::millis(50));
  engine.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, RunUntilAdvancesClockEvenWithoutEvents) {
  Engine engine;
  engine.run_until(SimTime::seconds(2));
  EXPECT_EQ(engine.now(), SimTime::seconds(2));
  EXPECT_THROW(engine.run_until(SimTime::seconds(1)), util::ContractError);
}

TEST(Engine, PeriodicFiresRepeatedlyUntilCancelled) {
  Engine engine;
  int count = 0;
  auto timer = engine.schedule_periodic(SimTime::millis(10), [&] { ++count; });
  engine.run_until(SimTime::millis(55));
  EXPECT_EQ(count, 5);
  timer.cancel();
  engine.run_until(SimTime::millis(200));
  EXPECT_EQ(count, 5);
}

TEST(Engine, PeriodicCancelFromInsideCallback) {
  Engine engine;
  int count = 0;
  sim::Timer timer;
  timer = engine.schedule_periodic(SimTime::millis(10), [&] {
    if (++count == 3) timer.cancel();
  });
  engine.run_until(SimTime::seconds(1));
  EXPECT_EQ(count, 3);
}

TEST(Engine, NegativeDelayViolatesContract) {
  Engine engine;
  EXPECT_THROW(engine.schedule(SimTime::millis(-1), [] {}), util::ContractError);
  EXPECT_THROW(engine.schedule_periodic(SimTime::zero(), [] {}), util::ContractError);
}

TEST(Engine, ExecutedCountsOnlyLiveEvents) {
  Engine engine;
  auto t = engine.schedule(SimTime::millis(1), [] {});
  engine.schedule(SimTime::millis(2), [] {});
  t.cancel();
  engine.run();
  EXPECT_EQ(engine.executed(), 1u);
}

TEST(Engine, RngIsSeeded) {
  Engine a{99}, b{99}, c{100};
  EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
  EXPECT_NE(a.rng().next_u64(), c.rng().next_u64());
}

}  // namespace
}  // namespace rbay::sim
