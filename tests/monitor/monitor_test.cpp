#include "monitor/monitor.hpp"

#include <gtest/gtest.h>

namespace rbay::monitor {
namespace {

TEST(Monitor, AddMetricWritesInitialValue) {
  store::AttributeStore store;
  ResourceMonitor mon{store, util::Rng{1}};
  mon.add_metric({"CPU_utilization", RandomWalk{0.4, 0.0, 1.0, 0.05}});
  mon.add_metric({"Matlab", Constant{store::AttributeValue{"9.0"}}});
  mon.add_metric({"GPU", Flip{true, 0.5}});
  EXPECT_EQ(store.size(), 3u);
  EXPECT_DOUBLE_EQ(store.find("CPU_utilization")->value().as_double(), 0.4);
  EXPECT_EQ(store.find("Matlab")->value().as_string(), "9.0");
  EXPECT_TRUE(store.find("GPU")->value().as_bool());
}

TEST(Monitor, RandomWalkStaysBounded) {
  store::AttributeStore store;
  ResourceMonitor mon{store, util::Rng{2}};
  mon.add_metric({"cpu", RandomWalk{0.5, 0.0, 1.0, 0.2}});
  for (int i = 0; i < 1000; ++i) {
    mon.tick();
    const double v = store.find("cpu")->value().as_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Monitor, RandomWalkActuallyMoves) {
  store::AttributeStore store;
  ResourceMonitor mon{store, util::Rng{3}};
  mon.add_metric({"cpu", RandomWalk{0.5, 0.0, 1.0, 0.1}});
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 200; ++i) {
    mon.tick();
    const double v = store.find("cpu")->value().as_double();
    min = std::min(min, v);
    max = std::max(max, v);
  }
  EXPECT_GT(max - min, 0.1);
}

TEST(Monitor, ConstantNeverChanges) {
  store::AttributeStore store;
  ResourceMonitor mon{store, util::Rng{4}};
  mon.add_metric({"Matlab", Constant{store::AttributeValue{"9.0"}}});
  for (int i = 0; i < 100; ++i) mon.tick();
  EXPECT_EQ(store.find("Matlab")->value().as_string(), "9.0");
}

TEST(Monitor, FlipEventuallyFlips) {
  store::AttributeStore store;
  ResourceMonitor mon{store, util::Rng{5}};
  mon.add_metric({"GPU", Flip{true, 0.2}});
  bool saw_false = false;
  for (int i = 0; i < 200 && !saw_false; ++i) {
    mon.tick();
    saw_false = !store.find("GPU")->value().as_bool();
  }
  EXPECT_TRUE(saw_false);
}

TEST(Monitor, NoisyClampsToRange) {
  store::AttributeStore store;
  ResourceMonitor mon{store, util::Rng{6}};
  mon.add_metric({"mem", Noisy{2.0, 5.0, 0.0, 4.0}});
  for (int i = 0; i < 300; ++i) {
    mon.tick();
    const double v = store.find("mem")->value().as_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 4.0);
  }
}

TEST(Monitor, PeriodicTicksOnEngine) {
  store::AttributeStore store;
  sim::Engine engine{7};
  ResourceMonitor mon{store, util::Rng{7}};
  mon.add_metric({"cpu", RandomWalk{0.5, 0.0, 1.0, 0.05}});
  int callbacks = 0;
  mon.on_tick = [&] { ++callbacks; };
  mon.start(engine, util::SimTime::millis(100));
  engine.run_until(util::SimTime::seconds(1));
  EXPECT_EQ(mon.ticks(), 10u);
  EXPECT_EQ(callbacks, 10);
  mon.stop();
  engine.run_until(util::SimTime::seconds(2));
  EXPECT_EQ(mon.ticks(), 10u);
}

TEST(Monitor, StandardMetricsCoverEvaluationWorkload) {
  util::Rng rng{8};
  auto specs = standard_node_metrics(rng);
  ASSERT_GE(specs.size(), 4u);
  store::AttributeStore store;
  ResourceMonitor mon{store, util::Rng{9}};
  for (auto& spec : specs) mon.add_metric(std::move(spec));
  EXPECT_TRUE(store.contains("CPU_utilization"));
  EXPECT_TRUE(store.contains("GPU"));
  EXPECT_TRUE(store.contains("Matlab"));
  EXPECT_TRUE(store.contains("Mem_free_gb"));
}

TEST(Monitor, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    store::AttributeStore store;
    ResourceMonitor mon{store, util::Rng{seed}};
    mon.add_metric({"cpu", RandomWalk{0.5, 0.0, 1.0, 0.1}});
    for (int i = 0; i < 50; ++i) mon.tick();
    return store.find("cpu")->value().as_double();
  };
  EXPECT_DOUBLE_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace rbay::monitor
