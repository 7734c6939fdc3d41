// TimeSeries sampler: window deltas, EWMA/hysteresis alert transitions,
// ring overflow accounting, byte-identical export, and the
// non-perturbation contract (a sampler whose rules never fire leaves the
// registry snapshot untouched).

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/engine.hpp"

namespace rbay::obs {
namespace {

TEST(TimeSeriesTest, RecordsCounterDeltasPerWindow) {
  sim::Engine engine{1};
  Registry registry;
  TimeSeries series{engine, registry, util::SimTime::millis(100)};

  registry.fed().counter<"work.done">().inc(5);
  registry.site(2).counter<"work.done">().inc(3);
  series.sample();
  registry.fed().counter<"work.done">().inc(2);
  series.sample();
  series.sample();  // idle window: no delta

  ASSERT_EQ(series.window_count(), 3u);
  const auto json = series.to_json();
  // First window: delta from zero; second: only the increment since.
  EXPECT_NE(json.find("\"work.done\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"work.done\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"work.done\":3"), std::string::npos) << json;  // site 2
  // Zero deltas are omitted: the idle window carries no counters section.
  EXPECT_EQ(json.find("\"work.done\":0"), std::string::npos) << json;
}

TEST(TimeSeriesTest, RecordsGaugesAndLatencyQuantiles) {
  sim::Engine engine{1};
  Registry registry;
  TimeSeries series{engine, registry, util::SimTime::millis(100)};

  registry.fed().gauge<"depth">().set(7);
  registry.fed().latency<"op.latency">().add(util::SimTime::micros(1000));
  registry.fed().latency<"op.latency">().add(util::SimTime::micros(2000));
  series.sample();

  const auto json = series.to_json();
  EXPECT_NE(json.find("\"depth\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"op.latency\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
}

TEST(TimeSeriesTest, RingDropsOldestWindowsAndCountsThem) {
  sim::Engine engine{1};
  Registry registry;
  TimeSeries series{engine, registry, util::SimTime::millis(100), /*capacity=*/4};

  for (int i = 0; i < 6; ++i) {
    registry.fed().counter<"tick">().inc();
    series.sample();
  }
  EXPECT_EQ(series.window_count(), 4u);
  EXPECT_EQ(series.dropped_windows(), 2u);
  EXPECT_NE(series.to_json().find("\"dropped_windows\":2"), std::string::npos);
}

TEST(TimeSeriesTest, CounterRuleOpensAndClosesWithHysteresis) {
  sim::Engine engine{1};
  Registry registry;
  TimeSeries series{engine, registry, util::SimTime::millis(100)};
  series.add_rule({"drops", /*is_gauge=*/false, "net.drops", '>', 2.0,
                   /*alpha=*/1.0, /*for_windows=*/2});

  auto& drops = registry.fed().counter<"net.drops">();
  // One hot window is not enough (for_windows = 2).
  drops.inc(5);
  series.sample();
  EXPECT_EQ(series.alerts_open(), 0u);
  // Second consecutive hot window opens it.
  drops.inc(5);
  series.sample();
  EXPECT_EQ(series.alerts_open(), 1u);
  // One quiet window is not enough to close...
  series.sample();
  EXPECT_EQ(series.alerts_open(), 1u);
  // ...two are.
  series.sample();
  EXPECT_EQ(series.alerts_open(), 0u);

  ASSERT_EQ(series.alert_log().size(), 2u);
  EXPECT_EQ(series.alert_log()[0].rule, "drops");
  EXPECT_TRUE(series.alert_log()[0].open);
  EXPECT_FALSE(series.alert_log()[1].open);

  // Transitions are the one place the sampler touches the registry.
  EXPECT_EQ(registry.fed().counter<"obs.alerts.opened">().value(), 1u);
  EXPECT_EQ(registry.fed().counter<"obs.alerts.closed">().value(), 1u);
  EXPECT_EQ(registry.fed().gauge<"obs.alerts.open">().value(), 0);
}

TEST(TimeSeriesTest, EwmaSmoothsSpikes) {
  sim::Engine engine{1};
  Registry registry;
  TimeSeries series{engine, registry, util::SimTime::millis(100)};
  // Heavy smoothing: one 100-delta spike moves the EWMA from 0 to only 10.
  series.add_rule({"burst", false, "x", '>', 50.0, /*alpha=*/0.1, 1});

  auto& x = registry.fed().counter<"x">();
  x.inc(100);  // first sample primes the EWMA with the raw value...
  series.sample();
  EXPECT_EQ(series.alerts_open(), 1u);  // ...so the first spike does fire
  // Quiet windows decay 100 -> 90 -> 81 -> ... threshold 50 crossed only
  // after ~7 windows of silence.
  int windows_to_close = 0;
  while (series.alerts_open() > 0) {
    series.sample();
    ++windows_to_close;
    ASSERT_LT(windows_to_close, 20);
  }
  EXPECT_GT(windows_to_close, 3);
}

TEST(TimeSeriesTest, GaugeRuleReadsLiveValue) {
  sim::Engine engine{1};
  Registry registry;
  TimeSeries series{engine, registry, util::SimTime::millis(100)};
  series.add_rule({"deep", /*is_gauge=*/true, "queue", '>', 10.0});

  registry.fed().gauge<"queue">().set(50);
  series.sample();
  EXPECT_EQ(series.alerts_open(), 1u);
  registry.fed().gauge<"queue">().set(0);
  series.sample();
  EXPECT_EQ(series.alerts_open(), 0u);
}

TEST(TimeSeriesTest, PeriodicSamplerFollowsSimTime) {
  sim::Engine engine{1};
  Registry registry;
  TimeSeries series{engine, registry, util::SimTime::millis(100)};
  series.start();
  engine.run_until(util::SimTime::millis(1050));
  series.stop();
  EXPECT_EQ(series.window_count(), 10u);
}

TEST(TimeSeriesTest, ExportIsByteIdenticalAcrossRuns) {
  const auto run = [] {
    sim::Engine engine{7};
    Registry registry;
    TimeSeries series{engine, registry, util::SimTime::millis(100)};
    series.add_rule({"hot", false, "work", '>', 3.0});
    series.start();
    engine.schedule_periodic(util::SimTime::millis(30),
                             [&registry] { registry.fed().counter<"work">().inc(2); });
    engine.run_until(util::SimTime::seconds(2));
    series.stop();
    series.sample();
    return series.to_json();
  };
  const auto a = run();
  EXPECT_EQ(a, run());
  EXPECT_NE(a.find("\"alerts\""), std::string::npos);
}

TEST(TimeSeriesTest, QuietSamplerLeavesRegistrySnapshotUntouched) {
  const auto snapshot = [](bool with_sampler) {
    sim::Engine engine{11};
    Registry registry;
    engine.set_metrics(&registry);
    engine.schedule_periodic(util::SimTime::millis(40),
                             [&registry] { registry.fed().counter<"app.work">().inc(); });
    TimeSeries series{engine, registry, util::SimTime::millis(100)};
    // A rule that never fires must not create obs.alerts.* metrics.
    series.add_rule({"never", false, "app.work", '>', 1e9});
    if (with_sampler) series.start();
    engine.run_until(util::SimTime::seconds(2));
    if (with_sampler) {
      series.stop();
      series.sample();
      EXPECT_GT(series.window_count(), 0u);
    }
    return registry.to_json();
  };
  // Observer events are excluded from sim.* metrics and quiet rules never
  // write, so enabling the sampler is invisible in the snapshot.
  EXPECT_EQ(snapshot(false), snapshot(true));
}

}  // namespace
}  // namespace rbay::obs
