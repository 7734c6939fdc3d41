// Sharded-engine unit tests: shard topology, windowed execution under
// conservative lookahead, control-as-barrier semantics, cross-shard
// scheduling/cancellation rules, and schedule determinism across worker
// counts.  The whole-federation equivalence matrix lives in
// parallel_equivalence_test.cpp; this file exercises the engine alone.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

namespace rbay::sim {
namespace {

using util::SimTime;

EngineConfig sharded_config(unsigned threads) {
  EngineConfig config;
  config.threads = threads;
  return config;
}

TEST(EngineConfig, FromEnvReadsThreadsAndSharding) {
  ::unsetenv("RBAY_SIM_THREADS");
  EXPECT_EQ(EngineConfig::from_env().threads, 1u);

  ::setenv("RBAY_SIM_THREADS", "4", 1);
  EXPECT_EQ(EngineConfig::from_env().threads, 4u);

  ::unsetenv("RBAY_SIM_THREADS");
}

TEST(ShardedEngine, TopologyIsIdempotentButFixed) {
  Engine engine{7, sharded_config(1)};
  EXPECT_EQ(engine.shard_count(), 1u);  // control only until a Network declares sites
  engine.configure_shards(4);
  EXPECT_EQ(engine.shard_count(), 5u);  // 4 sites + control
  EXPECT_EQ(engine.shard_for_site(2), 3u);
  engine.configure_shards(4);  // same size: fine
  EXPECT_THROW(engine.configure_shards(5), util::ContractError);
}

TEST(ShardedEngine, ControlEventsRunAndQuiesce) {
  Engine engine{7, sharded_config(2)};
  engine.configure_shards(2);
  std::vector<int> order;
  engine.schedule(SimTime::millis(20), [&] { order.push_back(2); });
  engine.schedule(SimTime::millis(10), [&] { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.now(), SimTime::millis(20));
}

TEST(ShardedEngine, ShardScopePinsSetupTimers) {
  Engine engine{7, sharded_config(2)};
  engine.configure_shards(2);
  std::uint32_t seen_shard = 99;
  {
    Engine::ShardScope scope(engine, engine.shard_for_site(1));
    engine.schedule(SimTime::millis(1), [&] { seen_shard = engine.current_shard(); });
  }
  engine.run();
  EXPECT_EQ(seen_shard, engine.shard_for_site(1));
}

TEST(ShardedEngine, CrossShardScheduleRespectsLookahead) {
  Engine engine{7, sharded_config(2)};
  engine.configure_shards(2);
  engine.set_cross_shard_lookahead(SimTime::millis(5));
  std::vector<std::uint32_t> shards;
  // Site 0 sends to site 1 with a delay >= lookahead: legal.
  Engine::ShardScope scope(engine, engine.shard_for_site(0));
  engine.schedule(SimTime::millis(1), [&] {
    shards.push_back(engine.current_shard());
    engine.schedule_on(engine.shard_for_site(1), SimTime::millis(5),
                       [&] { shards.push_back(engine.current_shard()); });
  });
  engine.run();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0], engine.shard_for_site(0));
  EXPECT_EQ(shards[1], engine.shard_for_site(1));
}

TEST(ShardedEngine, LookaheadViolationIsAContractError) {
  Engine engine{7, sharded_config(1)};
  engine.configure_shards(2);
  engine.set_cross_shard_lookahead(SimTime::millis(5));
  // Force a window: two site shards with pending work, then a cross-shard
  // send with a sub-lookahead delay from inside the window.
  bool threw = false;
  {
    Engine::ShardScope scope(engine, engine.shard_for_site(1));
    engine.schedule(SimTime::millis(1), [] {});
  }
  Engine::ShardScope scope(engine, engine.shard_for_site(0));
  engine.schedule(SimTime::millis(1), [&] {
    try {
      engine.schedule_on(engine.shard_for_site(1), SimTime::millis(1), [] {});
    } catch (const util::ContractError&) {
      threw = true;
    }
  });
  engine.run();
  EXPECT_TRUE(threw);
}

TEST(ShardedEngine, ControlActsAsBarrierBetweenSiteEvents) {
  // A control event between two batches of site events must observe all
  // site work before it and none after it.
  Engine engine{7, sharded_config(4)};
  engine.configure_shards(4);
  engine.set_cross_shard_lookahead(SimTime::millis(1));
  std::atomic<int> site_events{0};  // four site shards bump it concurrently
  int seen_at_barrier = -1;
  for (std::uint32_t site = 0; site < 4; ++site) {
    Engine::ShardScope scope(engine, engine.shard_for_site(site));
    engine.schedule(SimTime::millis(1), [&] { ++site_events; });
    engine.schedule(SimTime::millis(20), [&] { ++site_events; });
  }
  engine.schedule(SimTime::millis(10), [&] { seen_at_barrier = site_events.load(); });
  engine.run();
  EXPECT_EQ(seen_at_barrier, 4);
  EXPECT_EQ(site_events.load(), 8);
}

TEST(ShardedEngine, PerShardClocksAndRngStreams) {
  Engine engine{7, sharded_config(2)};
  engine.configure_shards(2);
  engine.set_cross_shard_lookahead(SimTime::millis(1));
  std::uint64_t draw_a = 0;
  std::uint64_t draw_b = 0;
  {
    Engine::ShardScope scope(engine, engine.shard_for_site(0));
    engine.schedule(SimTime::millis(1), [&] { draw_a = engine.rng().next_u64(); });
  }
  {
    Engine::ShardScope scope(engine, engine.shard_for_site(1));
    engine.schedule(SimTime::millis(2), [&] { draw_b = engine.rng().next_u64(); });
  }
  engine.run();
  EXPECT_NE(draw_a, draw_b);  // distinct per-shard streams
  EXPECT_EQ(draw_a, util::Rng::stream(7, 1).next_u64());
  EXPECT_EQ(draw_b, util::Rng::stream(7, 2).next_u64());
}

TEST(ShardedEngine, CancelReleasesForegroundAcrossRuns) {
  Engine engine{7, sharded_config(2)};
  engine.configure_shards(2);
  bool fired = false;
  Timer timer;
  {
    Engine::ShardScope scope(engine, engine.shard_for_site(1));
    timer = engine.schedule(SimTime::seconds(10), [&] { fired = true; });
  }
  timer.cancel();
  engine.run();  // must return immediately, not wait out the dead timer
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.foreground_pending(), 0u);
}

TEST(ShardedEngine, SiteEventMayCancelControlTimer) {
  Engine engine{7, sharded_config(2)};
  engine.configure_shards(2);
  engine.set_cross_shard_lookahead(SimTime::millis(1));
  bool control_fired = false;
  Timer control_timer = engine.schedule(SimTime::millis(20), [&] { control_fired = true; });
  Engine::ShardScope scope(engine, engine.shard_for_site(0));
  engine.schedule(SimTime::millis(1), [&] { control_timer.cancel(); });
  engine.run();
  EXPECT_FALSE(control_fired);
}

TEST(ShardedEngine, RunUntilAdvancesEveryShardClock) {
  Engine engine{7, sharded_config(2)};
  engine.configure_shards(2);
  int fired = 0;
  {
    Engine::ShardScope scope(engine, engine.shard_for_site(0));
    engine.schedule(SimTime::millis(10), [&] { ++fired; });
    engine.schedule(SimTime::millis(90), [&] { ++fired; });
  }
  engine.run_until(SimTime::millis(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), SimTime::millis(50));
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(ShardedEngine, PeriodicTimersStayOnTheirShard) {
  Engine engine{7, sharded_config(2)};
  engine.configure_shards(2);
  engine.set_cross_shard_lookahead(SimTime::millis(1));
  std::vector<std::uint32_t> shards;
  Timer tick;
  {
    Engine::ShardScope scope(engine, engine.shard_for_site(1));
    tick = engine.schedule_periodic(SimTime::millis(10),
                                    [&] { shards.push_back(engine.current_shard()); });
  }
  engine.run_until(SimTime::millis(35));
  tick.cancel();
  ASSERT_EQ(shards.size(), 3u);
  for (std::uint32_t s : shards) EXPECT_EQ(s, engine.shard_for_site(1));
}

// Regression: a shard family with no cross-shard lookahead (single-site
// topologies never set one) must still quiesce and honor deadlines.  The
// window used to be unbounded in that case, and since quiescence/deadline
// checks only happen at barriers, a self-rescheduling periodic timer kept
// the one window spinning forever — this test hung before windows were
// bounded by the fixed no-lookahead quantum.
TEST(ShardedEngine, QuiescesWithPeriodicTimersAndNoLookahead) {
  Engine engine{7, sharded_config(1)};
  engine.configure_shards(1);  // single site: lookahead stays unset
  int ticks = 0;
  int fired = 0;
  {
    Engine::ShardScope scope(engine, engine.shard_for_site(0));
    engine.schedule_periodic(SimTime::millis(10), [&] { ++ticks; });
    engine.schedule(SimTime::millis(250), [&] { ++fired; });
  }
  engine.run();  // must terminate once the one foreground event drains
  EXPECT_EQ(fired, 1);
  // The window that held the 250ms event is [210ms, 310ms): run() drains
  // it and leaves every clock at the last tick it ran, 300ms — past the
  // foreground event, and less than one 100ms quantum beyond it.
  EXPECT_EQ(ticks, 30);
  EXPECT_EQ(engine.now(), SimTime::millis(300));
  // run_for measures from there: another second is 100 more firings.
  engine.run_for(SimTime::seconds(1));  // must stop at the deadline
  EXPECT_EQ(ticks, 130);
  EXPECT_EQ(engine.now(), SimTime::millis(1300));
}

// The core determinism property at engine level: the same seed produces the
// same event schedule — observed as (time, shard, payload) sequences per
// shard — at 1, 2, and 4 worker threads.
TEST(ShardedEngine, ScheduleIsIdenticalAcrossWorkerCounts) {
  struct Obs {
    std::int64_t at_us;
    std::uint32_t shard;
    int tag;
    bool operator==(const Obs&) const = default;
  };
  const auto run_once = [](unsigned threads) {
    Engine engine{1234, sharded_config(threads)};
    engine.configure_shards(4);
    engine.set_cross_shard_lookahead(SimTime::millis(2));
    // One log per shard: each is appended only by its owner, and the
    // concatenation in shard order is the canonical observation.
    std::vector<std::vector<Obs>> logs(5);
    std::function<void(std::uint32_t, int)> ping = [&](std::uint32_t /*site*/, int depth) {
      logs[engine.current_shard()].push_back(
          Obs{engine.now().as_micros(), engine.current_shard(), depth});
      if (depth >= 6) return;
      const std::uint32_t next =
          static_cast<std::uint32_t>(engine.rng().uniform_int(0, 3));
      const auto delay =
          SimTime::millis(2) + SimTime::micros(static_cast<std::int64_t>(
                                   engine.rng().uniform_int(0, 500)));
      engine.schedule_on(engine.shard_for_site(next), delay,
                         [&ping, next, depth] { ping(next, depth + 1); });
    };
    for (std::uint32_t site = 0; site < 4; ++site) {
      Engine::ShardScope scope(engine, engine.shard_for_site(site));
      engine.schedule(SimTime::millis(1 + site), [&ping, site] { ping(site, 0); });
    }
    engine.run();
    std::vector<Obs> flat;
    for (const auto& log : logs) flat.insert(flat.end(), log.begin(), log.end());
    return flat;
  };
  const auto one_worker = run_once(1);
  EXPECT_FALSE(one_worker.empty());
  EXPECT_EQ(run_once(2), one_worker);
  EXPECT_EQ(run_once(4), one_worker);
}

}  // namespace
}  // namespace rbay::sim
