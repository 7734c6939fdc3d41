// Event nodes and Timers: one-shot and stale-timer semantics, move-only
// and oversized callbacks (each run and destroyed exactly once, pending
// ones included when the engine goes away), and per-shard pools that stay
// at their high-water mark under steady two-site traffic.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>

#include "net/network.hpp"
#include "sim/engine.hpp"

namespace rbay::sim {
namespace {

/// Counts its destructions into a shared counter (moved-from instances
/// don't count).
struct Counted {
  int* destroyed = nullptr;
  explicit Counted(int* d) : destroyed(d) {}
  Counted(Counted&& o) noexcept : destroyed(o.destroyed) { o.destroyed = nullptr; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() {
    if (destroyed != nullptr) ++*destroyed;
  }
};

TEST(EventPool, OneShotTimerIsInactiveOnceFired) {
  Engine engine;
  Timer t = engine.schedule(SimTime::millis(1), [] {});
  EXPECT_TRUE(t.active());
  engine.run();
  EXPECT_FALSE(t.active());
}

TEST(EventPool, TimerIsActiveWhileItsEventRuns) {
  Engine engine;
  Timer t;
  bool seen = false;
  t = engine.schedule(SimTime::millis(1), [&] { seen = t.active(); });
  engine.run();
  EXPECT_TRUE(seen);
  EXPECT_FALSE(t.active());
}

TEST(EventPool, StaleTimerDoesNotCancelTheNodesNextEvent) {
  Engine engine;
  Timer stale = engine.schedule(SimTime::millis(1), [] {});
  engine.run();
  const std::size_t nodes = engine.event_nodes();
  int fired = 0;
  // The freed node is the first one the pool hands out again.
  Timer fresh = engine.schedule(SimTime::millis(1), [&] { ++fired; });
  EXPECT_EQ(engine.event_nodes(), nodes);
  EXPECT_FALSE(stale.active());
  EXPECT_TRUE(fresh.active());
  stale.cancel();
  EXPECT_TRUE(fresh.active());
  EXPECT_EQ(engine.foreground_pending(), 1u);
  engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventPool, CancelAfterFiringIsANoOp) {
  Engine engine;
  int fired = 0;
  Timer t = engine.schedule(SimTime::millis(1), [&] { ++fired; });
  engine.run();
  engine.schedule(SimTime::millis(5), [&] { ++fired; });
  t.cancel();
  EXPECT_EQ(engine.foreground_pending(), 1u);
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventPool, CancellingTwiceReleasesOnce) {
  Engine engine;
  int fired = 0;
  Timer t = engine.schedule(SimTime::millis(1), [&] { ++fired; });
  engine.schedule(SimTime::millis(2), [&] { ++fired; });
  EXPECT_EQ(engine.foreground_pending(), 2u);
  t.cancel();
  EXPECT_FALSE(t.active());
  EXPECT_EQ(engine.foreground_pending(), 1u);
  t.cancel();
  EXPECT_EQ(engine.foreground_pending(), 1u);
  engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventPool, MoveOnlyCallbackRunsOnceAndIsDestroyedOnce) {
  Engine engine;
  int destroyed = 0;
  int runs = 0;
  auto owned = std::make_unique<Counted>(&destroyed);
  engine.schedule(SimTime::millis(1), [&runs, owned = std::move(owned)] {
    ASSERT_NE(owned, nullptr);
    ++runs;
  });
  EXPECT_EQ(destroyed, 0);
  engine.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(EventPool, OversizedCallbackRunsOnceAndIsDestroyedOnce) {
  Engine engine;
  int destroyed = 0;
  int runs = 0;
  std::array<char, 4 * detail::kInlineCallback> ballast{};
  ballast[7] = 'x';
  Counted counted(&destroyed);
  engine.schedule(SimTime::millis(1),
                  [&runs, ballast, counted = std::move(counted)] { runs += ballast[7] == 'x'; });
  engine.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(EventPool, PeriodicCallbackIsDestroyedOnceAfterCancel) {
  Engine engine;
  int destroyed = 0;
  int runs = 0;
  Timer t = engine.schedule_periodic(SimTime::millis(10),
                                     [&runs, c = Counted(&destroyed)] { ++runs; });
  engine.run_until(SimTime::millis(35));
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(destroyed, 0);
  EXPECT_TRUE(t.active());
  t.cancel();
  EXPECT_FALSE(t.active());
  engine.run_until(SimTime::millis(100));
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(destroyed, 1);
}

TEST(EventPool, PendingCallbacksAreDestroyedWithTheEngine) {
  int destroyed = 0;
  int runs = 0;
  {
    Engine engine;
    engine.schedule(SimTime::millis(1), [c = Counted(&destroyed), &runs] { ++runs; });
    std::array<char, 4 * detail::kInlineCallback> ballast{};
    engine.schedule(SimTime::millis(2),
                    [c = Counted(&destroyed), ballast, &runs] { runs += ballast[0] + 1; });
    engine.schedule_periodic(SimTime::millis(3), [c = Counted(&destroyed), &runs] { ++runs; });
    Timer cancelled = engine.schedule(SimTime::millis(4), [c = Counted(&destroyed)] {});
    cancelled.cancel();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(destroyed, 4);
}

TEST(EventPool, CrossShardCallbacksPendingAtDestructionAreDestroyedOnce) {
  int destroyed = 0;
  {
    Engine engine(7, EngineConfig{2});
    net::Network net(engine, net::Topology::uniform(2, 0.5, 40.0));
    // Each site shard schedules onto the other; the engine stops while the
    // messages are in flight.
    for (std::uint32_t s = 0; s < 2; ++s) {
      const std::uint32_t from = engine.shard_for_site(s);
      const std::uint32_t to = engine.shard_for_site(1 - s);
      engine.schedule_on(from, SimTime::millis(1), [&engine, &destroyed, to] {
        engine.schedule_on(to, SimTime::millis(30), [c = Counted(&destroyed)] {});
      });
    }
    engine.run_until(SimTime::millis(10));
    EXPECT_EQ(engine.pending(), 2u);
  }
  EXPECT_EQ(destroyed, 2);
}

struct Ball final : net::Payload {
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
  [[nodiscard]] const char* type_name() const override { return "Ball"; }
};

/// Two endpoints on two sites bouncing `balls` messages until `limit`
/// deliveries have happened.
struct PingPong {
  Engine engine;
  net::Network net;
  net::EndpointId a = 0;
  net::EndpointId b = 0;
  std::atomic<std::uint64_t> delivered{0};  // both site shards count
  std::uint64_t limit = 0;

  explicit PingPong(unsigned threads)
      : engine(11, EngineConfig{threads}), net(engine, net::Topology::uniform(2, 0.5, 40.0)) {
    a = net.add_endpoint(0, [this](net::Envelope env) { bounce(env.to, env.from); });
    b = net.add_endpoint(1, [this](net::Envelope env) { bounce(env.to, env.from); });
  }

  void bounce(net::EndpointId self, net::EndpointId peer) {
    if (delivered.fetch_add(1) + 1 < limit) net.send(self, peer, std::make_unique<Ball>());
  }

  void play(std::uint64_t deliveries, int balls) {
    limit = delivered.load() + deliveries;
    for (int i = 0; i < balls; ++i) {
      net.send(i % 2 == 0 ? a : b, i % 2 == 0 ? b : a, std::make_unique<Ball>());
    }
    engine.run();
  }
};

TEST(EventPool, PoolsStayAtTheirHighWaterMarkUnderPingPong) {
  for (const unsigned threads : {1u, 4u}) {
    PingPong game(threads);
    game.play(1'000, 16);
    const std::size_t high_water = game.engine.event_nodes();
    EXPECT_GT(high_water, 0u) << threads << " threads";
    game.play(100'000, 16);
    EXPECT_GE(game.delivered.load(), 101'000u) << threads << " threads";
    EXPECT_EQ(game.engine.event_nodes(), high_water) << threads << " threads";
  }
}

}  // namespace
}  // namespace rbay::sim
