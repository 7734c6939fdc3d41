// Online invariant watchdog: a crash mid-run opens a violation episode
// that heals once prune/failover complete (time-to-heal measured), a
// still-open episode fails finalize(), and a violation-free watched run
// leaves the registry snapshot byte-identical to an unwatched one.

#include <gtest/gtest.h>

#include <string>

#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "fault/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace rbay::fault {
namespace {

using util::SimTime;

core::ClusterConfig small_config(std::uint64_t seed) {
  core::ClusterConfig config;
  config.topology = net::Topology::uniform(2, 0.5, 40.0);
  config.seed = seed;
  config.metrics = true;
  config.node.scribe.aggregation_interval = SimTime::millis(200);
  config.node.scribe.heartbeat_interval = SimTime::millis(250);
  return config;
}

std::unique_ptr<core::RBayCluster> build_federation(std::uint64_t seed) {
  auto cluster = std::make_unique<core::RBayCluster>(small_config(seed));
  cluster->add_tree_spec(core::TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster->populate(6);
  for (std::size_t i = 0; i < cluster->size(); ++i) {
    EXPECT_TRUE(cluster->node(i).post("GPU", true).ok());
  }
  cluster->finalize();
  cluster->run_for(SimTime::seconds(2));
  return cluster;
}

TEST(Watchdog, MeasuresTimeToHealAcrossACrash) {
  auto cluster = build_federation(5);
  auto checks = Watchdog::parse_checks({"trees", "children", "aggregates", "replicas"});
  ASSERT_TRUE(checks.ok()) << checks.error();
  Watchdog watchdog{*cluster, SimTime::millis(50), checks.value()};
  watchdog.start();

  FaultInjector injector{*cluster};
  auto schedule = parse_schedule(
      "at 100ms crash Site0 1\n"
      "at 2000ms recover Site0 1\n");
  ASSERT_TRUE(schedule.ok()) << schedule.error();
  ASSERT_TRUE(injector.arm(schedule.value()).ok());

  cluster->run_for(SimTime::seconds(10));
  cluster->run();

  const auto verdict = watchdog.finalize();
  EXPECT_TRUE(verdict.ok()) << verdict.error();
  EXPECT_GT(watchdog.polls(), 0u);
  ASSERT_GE(watchdog.opened_total(), 1u);
  EXPECT_EQ(watchdog.healed_total(), watchdog.opened_total());
  EXPECT_EQ(watchdog.open_count(), 0u);
  for (const auto& episode : watchdog.episodes()) {
    EXPECT_TRUE(episode.healed) << episode.invariant << ": " << episode.detail;
    EXPECT_GT(episode.closed, episode.opened);
  }

  // Registry writes mirror the episode transitions exactly.
  auto& fed = cluster->metrics()->fed();
  EXPECT_EQ(fed.counter<"watchdog.violations_opened">().value(), watchdog.opened_total());
  EXPECT_EQ(fed.counter<"watchdog.violations_closed">().value(), watchdog.healed_total());
  EXPECT_EQ(fed.gauge<"watchdog.violations_open">().value(), 0);
  const auto* heal = fed.find_latency("watchdog.time_to_heal");
  ASSERT_NE(heal, nullptr);
  EXPECT_EQ(heal->count(), watchdog.healed_total());
  EXPECT_GT(heal->max_us(), 0);
}

TEST(Watchdog, StillOpenEpisodeFailsFinalize) {
  auto cluster = build_federation(7);
  auto checks = Watchdog::parse_checks({"children", "aggregates"});
  ASSERT_TRUE(checks.ok()) << checks.error();
  Watchdog watchdog{*cluster, SimTime::millis(50), checks.value()};
  watchdog.start();

  FaultInjector injector{*cluster};
  auto schedule = parse_schedule("at 100ms crash Site0 1\n");
  ASSERT_TRUE(schedule.ok()) << schedule.error();
  ASSERT_TRUE(injector.arm(schedule.value()).ok());

  // Stop observing before the heartbeat prune can repair the tree: the
  // dead child is still linked, so the episode never closes.
  cluster->run_for(SimTime::millis(200));
  const auto verdict = watchdog.finalize();
  ASSERT_FALSE(verdict.ok());
  EXPECT_GE(watchdog.open_count(), 1u);
  EXPECT_EQ(watchdog.healed_total(), 0u);
  EXPECT_NE(verdict.error().find("never healed"), std::string::npos) << verdict.error();
}

TEST(Watchdog, CleanRunLeavesRegistrySnapshotUntouched) {
  const auto snapshot = [](std::uint64_t seed, bool watched) {
    auto cluster = build_federation(seed);
    {
      auto checks = Watchdog::parse_checks({});
      EXPECT_TRUE(checks.ok());
      Watchdog watchdog{*cluster, SimTime::millis(100), checks.value()};
      if (watched) watchdog.start();
      cluster->run_for(SimTime::seconds(3));
      if (watched) {
        const auto verdict = watchdog.finalize();
        EXPECT_TRUE(verdict.ok()) << verdict.error();
        EXPECT_GT(watchdog.polls(), 0u);
        EXPECT_EQ(watchdog.opened_total(), 0u);
      }
    }
    return cluster->metrics()->to_json();
  };
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(snapshot(seed, false), snapshot(seed, true));
  }
}

TEST(Watchdog, InternedEventNamesOutliveAlertAndEpisode) {
  auto cluster = build_federation(5);
  obs::CausalLog& causal = cluster->metrics()->causal();
  causal.set_flight_capacity(4096);  // endpoint 0's ring keeps the whole run
  std::string rule;
  std::string invariant;
  {
    obs::TimeSeries series{cluster->engine(), *cluster->metrics(), SimTime::millis(100)};
    series.add_rule({std::string("busy-") + "engine-events", false, "sim.events", '>', 0.0});
    series.start();
    Watchdog watchdog{*cluster, SimTime::millis(50)};
    watchdog.start();
    FaultInjector injector{*cluster};
    auto schedule = parse_schedule("at 100ms crash Site0 1\n");
    ASSERT_TRUE(schedule.ok()) << schedule.error();
    ASSERT_TRUE(injector.arm(schedule.value()).ok());
    cluster->run_for(SimTime::millis(400));
    ASSERT_FALSE(series.alert_log().empty());
    ASSERT_FALSE(watchdog.episodes().empty());
    rule = series.alert_log().front().rule;
    invariant = watchdog.episodes().front().invariant;
  }
  // The events' names were built from strings the sampler and the watchdog
  // owned; the ring still reads them after both are gone.
  const std::string dump = causal.dump_flight(0);
  EXPECT_NE(dump.find(" local alert.open:" + rule + " "), std::string::npos) << dump;
  EXPECT_NE(dump.find(" local watchdog.open:" + invariant + " "), std::string::npos) << dump;
}

TEST(Watchdog, ParseChecksValidatesNames) {
  auto all = Watchdog::parse_checks({});
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all.value().empty());  // empty = all cluster-level checkers

  auto bad = Watchdog::parse_checks({"children", "bogus"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("bogus"), std::string::npos) << bad.error();
}

}  // namespace
}  // namespace rbay::fault
