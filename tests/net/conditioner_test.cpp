#include "net/conditioner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/network.hpp"

namespace rbay::net {
namespace {

using util::SimTime;

struct ClonablePayload final : Payload {
  int tag = 0;
  [[nodiscard]] std::size_t wire_size() const override { return 100; }
  [[nodiscard]] const char* type_name() const override { return "ClonablePayload"; }
  [[nodiscard]] std::unique_ptr<Payload> clone_payload() const override {
    return std::make_unique<ClonablePayload>(*this);
  }
};

struct OpaquePayload final : Payload {
  [[nodiscard]] std::size_t wire_size() const override { return 100; }
  [[nodiscard]] const char* type_name() const override { return "OpaquePayload"; }
  // clone_payload() left at the default nullptr: not duplicable.
};

struct Fixture {
  sim::Engine engine;
  Network net;
  struct Arrival {
    int tag;
    SimTime at;
  };
  std::vector<Arrival> arrivals;

  explicit Fixture(std::uint64_t seed = 42)
      : engine(seed), net(engine, Topology::uniform(4, 0.5, 40.0)) {}

  EndpointId endpoint(SiteId site) {
    return net.add_endpoint(site, [this](Envelope env) {
      auto* p = dynamic_cast<ClonablePayload*>(env.payload.get());
      arrivals.push_back({p ? p->tag : -1, engine.now()});
    });
  }

  void send(EndpointId from, EndpointId to, int tag) {
    auto p = std::make_unique<ClonablePayload>();
    p->tag = tag;
    net.send(from, to, std::move(p));
  }
};

TEST(LinkConditioner, UnarmedLinkMakesNoDecisionAndDrawsNothing) {
  LinkConditioner cond;
  EXPECT_FALSE(cond.armed());
  util::Rng a{7};
  util::Rng b{7};
  const auto d = cond.decide(0, 1, a);
  EXPECT_FALSE(d.drop);
  EXPECT_FALSE(d.duplicate);
  EXPECT_EQ(d.delay_factor, 1.0);
  EXPECT_EQ(d.hold, SimTime::zero());
  // No RNG state consumed: both generators still agree.
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(LinkConditioner, ClearRestoresTheDefaultAndDisarms) {
  LinkConditioner cond;
  cond.set_duplicate(0, 1, 0.5);
  cond.set_gray(2, 3, 8.0);
  EXPECT_TRUE(cond.armed());
  EXPECT_NE(cond.link(0, 1), nullptr);
  EXPECT_NE(cond.link(1, 0), nullptr);  // duplicate is symmetric
  EXPECT_NE(cond.link(2, 3), nullptr);
  EXPECT_EQ(cond.link(3, 2), nullptr);  // gray is directed
  cond.clear(0, 1);
  EXPECT_EQ(cond.link(0, 1), nullptr);
  EXPECT_EQ(cond.link(1, 0), nullptr);
  cond.clear_all();
  EXPECT_FALSE(cond.armed());
}

TEST(LinkConditioner, GilbertElliottLossIsBurstyAtTheStationaryRate) {
  // p_enter 0.1 / p_exit 0.5 gives a stationary bad-state share of
  // 0.1/(0.1+0.5) = 1/6; with p_loss = 1 the long-run loss rate matches it
  // and drops arrive in geometric runs of mean length 1/p_exit = 2.
  Fixture f;
  f.net.set_jitter(0.0);
  f.net.conditioner().set_loss_burst(0, 1, 0.1, 0.5, 1.0);
  const auto a = f.endpoint(0);
  const auto b = f.endpoint(1);
  const int kSends = 4000;
  for (int i = 0; i < kSends; ++i) f.send(a, b, i);
  f.engine.run();

  std::vector<bool> delivered(kSends, false);
  for (const auto& ar : f.arrivals) delivered[static_cast<std::size_t>(ar.tag)] = true;
  const int lost = kSends - static_cast<int>(f.arrivals.size());
  const double loss_rate = static_cast<double>(lost) / kSends;
  EXPECT_GT(loss_rate, 0.10);
  EXPECT_LT(loss_rate, 0.24);

  // Burstiness: mean loss-run length well above 1 (i.i.d. loss at the same
  // rate would sit near 1/(1 - rate) ≈ 1.2; the chain's is ~2).
  int runs = 0;
  int run_losses = 0;
  bool in_run = false;
  for (int i = 0; i < kSends; ++i) {
    if (!delivered[static_cast<std::size_t>(i)]) {
      ++run_losses;
      if (!in_run) ++runs;
      in_run = true;
    } else {
      in_run = false;
    }
  }
  ASSERT_GT(runs, 0);
  const double mean_run = static_cast<double>(run_losses) / runs;
  EXPECT_GT(mean_run, 1.5) << "losses are not bursty";
  EXPECT_EQ(f.net.stats().weather_dropped, static_cast<std::uint64_t>(lost));
}

TEST(LinkConditioner, DuplicateDeliversExactlyTwiceInStableSeqOrder) {
  Fixture f;
  f.net.conditioner().set_duplicate(0, 1, 1.0);
  const auto a = f.endpoint(0);
  const auto b = f.endpoint(1);
  const int kSends = 50;
  for (int i = 0; i < kSends; ++i) f.send(a, b, i);
  f.engine.run();
  ASSERT_EQ(f.arrivals.size(), static_cast<std::size_t>(2 * kSends));
  std::vector<int> per_tag(kSends, 0);
  for (const auto& ar : f.arrivals) ++per_tag[static_cast<std::size_t>(ar.tag)];
  for (int i = 0; i < kSends; ++i) EXPECT_EQ(per_tag[static_cast<std::size_t>(i)], 2);
  EXPECT_EQ(f.net.stats().duplicated, static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(f.net.stats().messages_delivered, static_cast<std::uint64_t>(2 * kSends));
}

TEST(LinkConditioner, NonClonablePayloadsAreNeverDuplicated) {
  Fixture f;
  f.net.conditioner().set_duplicate(0, 1, 1.0);
  const auto a = f.endpoint(0);
  const auto b = f.endpoint(1);
  f.net.send(a, b, std::make_unique<OpaquePayload>());
  f.engine.run();
  EXPECT_EQ(f.arrivals.size(), 1u);
  EXPECT_EQ(f.net.stats().duplicated, 0u);
}

TEST(LinkConditioner, ReorderHoldsWithinTheWindowAndInvertsOrder) {
  Fixture f;
  f.net.set_jitter(0.0);
  const auto window = SimTime::millis(30);
  f.net.conditioner().set_reorder(0, 1, 0.5, window);
  const auto a = f.endpoint(0);
  const auto b = f.endpoint(1);
  const int kSends = 400;
  for (int i = 0; i < kSends; ++i) f.send(a, b, i);
  f.engine.run();
  ASSERT_EQ(f.arrivals.size(), static_cast<std::size_t>(kSends));

  const auto nominal = f.net.expected_delay(a, b);
  bool held = false;
  for (const auto& ar : f.arrivals) {
    EXPECT_GE(ar.at, nominal);
    EXPECT_LE(ar.at, nominal + window);
    if (ar.at > nominal) held = true;
  }
  EXPECT_TRUE(held);
  EXPECT_GT(f.net.stats().reordered, 0u);

  // All sends left at t=0, so arrival order == delivery order; a held
  // message must have been overtaken by a later-sent unheld one.
  bool inverted = false;
  for (std::size_t i = 1; i < f.arrivals.size(); ++i) {
    if (f.arrivals[i].tag < f.arrivals[i - 1].tag) inverted = true;
  }
  EXPECT_TRUE(inverted) << "no reordering ever happened";
}

TEST(LinkConditioner, AsymmetricPartitionKillsExactlyOneDirection) {
  Fixture f;
  f.net.conditioner().set_asym_partition(0, 1, true);
  const auto a = f.endpoint(0);
  const auto b = f.endpoint(1);
  f.send(a, b, 1);  // blackholed
  f.send(b, a, 2);  // must survive
  f.engine.run();
  ASSERT_EQ(f.arrivals.size(), 1u);
  EXPECT_EQ(f.arrivals[0].tag, 2);
  EXPECT_EQ(f.net.stats().weather_dropped, 1u);

  f.net.conditioner().set_asym_partition(0, 1, false);
  EXPECT_FALSE(f.net.conditioner().armed());
  f.send(a, b, 3);
  f.engine.run();
  EXPECT_EQ(f.arrivals.back().tag, 3);
}

TEST(LinkConditioner, GrayLinkInflatesOneDirectionOnly) {
  Fixture f;
  f.net.set_jitter(0.0);
  f.net.conditioner().set_gray(0, 1, 4.0);
  const auto a = f.endpoint(0);
  const auto b = f.endpoint(1);
  f.send(a, b, 1);
  f.send(b, a, 2);
  f.engine.run();
  ASSERT_EQ(f.arrivals.size(), 2u);
  const auto nominal = f.net.expected_delay(a, b);
  for (const auto& ar : f.arrivals) {
    if (ar.tag == 1) {
      EXPECT_EQ(ar.at.as_micros(), nominal.as_micros() * 4);
    } else {
      EXPECT_EQ(ar.at.as_micros(), nominal.as_micros());
    }
  }
}

TEST(LinkConditioner, SameSeedRunsAreIdenticalUnderWeather) {
  struct RunResult {
    std::vector<Fixture::Arrival> arrivals;
    NetworkStats stats;
  };
  auto run = [](std::uint64_t seed) {
    Fixture f{seed};
    auto& cond = f.net.conditioner();
    cond.set_loss_burst(0, 1, 0.2, 0.4, 0.9);
    cond.set_duplicate(0, 1, 0.3);
    cond.set_reorder(0, 1, 0.3, SimTime::millis(20));
    cond.set_gray(0, 1, 2.0);
    const auto a = f.endpoint(0);
    const auto b = f.endpoint(1);
    for (int i = 0; i < 300; ++i) f.send(a, b, i);
    f.engine.run();
    return RunResult{f.arrivals, f.net.stats()};
  };
  const auto x = run(7);
  const auto y = run(7);
  const auto z = run(8);
  ASSERT_EQ(x.arrivals.size(), y.arrivals.size());
  for (std::size_t i = 0; i < x.arrivals.size(); ++i) {
    EXPECT_EQ(x.arrivals[i].tag, y.arrivals[i].tag);
    EXPECT_EQ(x.arrivals[i].at, y.arrivals[i].at);
  }
  EXPECT_EQ(x.stats.weather_dropped, y.stats.weather_dropped);
  EXPECT_EQ(x.stats.duplicated, y.stats.duplicated);
  EXPECT_EQ(x.stats.reordered, y.stats.reordered);
  // Different seed, different weather.
  EXPECT_NE(x.arrivals.size(), z.arrivals.size());
}

TEST(LinkConditioner, RejectsOutOfRangeParameters) {
  LinkConditioner cond;
  EXPECT_THROW(cond.set_loss_burst(0, 1, 1.5, 0.5, 1.0), util::ContractError);
  EXPECT_THROW(cond.set_duplicate(0, 1, -0.1), util::ContractError);
  EXPECT_THROW(cond.set_reorder(0, 1, 0.5, SimTime::zero()), util::ContractError);
  EXPECT_THROW(cond.set_gray(0, 1, 0.5), util::ContractError);
  EXPECT_FALSE(cond.armed());
}

}  // namespace
}  // namespace rbay::net
