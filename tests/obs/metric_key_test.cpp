// Interned metric keys: one instrument per name however many shards touch
// it first, lock-free lookups after that, and snapshots that show exactly
// the instruments that were written or declared.

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace rbay::obs {
namespace {

using util::SimTime;

constexpr std::uint32_t kSites = 4;

TEST(MetricKey, SameNameInternsToOneId) {
  const MetricKey a{"test.key.same"};
  const MetricKey b{std::string("test.key.") + "same"};
  const MetricKey other{"test.key.other"};
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(&a.name(), &b.name());
  EXPECT_NE(a.id(), other.id());
  EXPECT_EQ(other.name(), "test.key.other");
}

TEST(MetricKey, ShardsFirstTouchingOneKeyShareOneInstrument) {
  constexpr int kIncrements = 1000;
  constexpr int kKeys = 40;  // enough distinct keys to grow the id table mid-window
  // Four site shards on four workers: one window runs all four at once.
  sim::EngineConfig config;
  config.threads = kSites;
  sim::Engine engine{3, config};
  engine.configure_shards(kSites);
  engine.set_cross_shard_lookahead(SimTime::millis(1));
  Registry reg;
  engine.set_metrics(&reg);
  std::array<Counter*, kSites> seen{};
  for (std::uint32_t site = 0; site < kSites; ++site) {
    sim::Engine::ShardScope scope(engine, engine.shard_for_site(site));
    engine.schedule(SimTime::millis(1), [&reg, &seen, site] {
      Scope& fed = reg.fed();
      seen[site] = &fed.counter<"test.shared">();
      for (int i = 0; i < kIncrements; ++i) fed.counter<"test.shared">().inc();
      // Each shard walks the keys from its own offset, so first touches
      // and table growth interleave across shards.
      for (int k = 0; k < kKeys; ++k) {
        const int which = (k + static_cast<int>(site) * 10) % kKeys;
        fed.counter(MetricKey{"test.many." + std::to_string(which)}).inc();
      }
      reg.site(site).counter<"test.shared">().inc();
    });
  }
  engine.run();

  for (std::uint32_t site = 1; site < kSites; ++site) EXPECT_EQ(seen[site], seen[0]);
  const Counter* shared = reg.fed().find_counter("test.shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared, seen[0]);
  EXPECT_EQ(shared->value(), std::uint64_t{kSites} * kIncrements);
  for (int k = 0; k < kKeys; ++k) {
    const Counter* c = reg.fed().find_counter("test.many." + std::to_string(k));
    ASSERT_NE(c, nullptr) << k;
    EXPECT_EQ(c->value(), kSites) << k;
  }
  ASSERT_EQ(reg.sites().size(), kSites);
  for (const auto& [site, scope] : reg.sites()) {
    EXPECT_EQ(scope.find_counter("test.shared")->value(), 1u) << site;
  }
}

TEST(MetricKey, UnwrittenKeyIsAbsentFromSnapshot) {
  Registry reg;
  reg.fed().counter<"test.written">().inc();
  // Interned, and written in another registry, but never looked up here.
  const MetricKey unwritten{"test.never_written"};
  Registry other;
  other.fed().counter(unwritten).inc();

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"test.written\":1"), std::string::npos);
  EXPECT_EQ(json.find("test.never_written"), std::string::npos);
  EXPECT_EQ(reg.fed().find_counter("test.never_written"), nullptr);
}

struct Ping final : net::Payload {
  [[nodiscard]] std::size_t wire_size() const override { return 64; }
  [[nodiscard]] const char* type_name() const override { return "Ping"; }
};

TEST(MetricKey, RunWithoutDropsStillReportsZeroDrops) {
  sim::Engine engine{5};
  Registry reg;
  engine.set_metrics(&reg);
  net::Network network{engine, net::Topology::uniform(2, 0.5, 40.0)};
  int delivered = 0;
  const auto a = network.add_endpoint(0, [&](net::Envelope) { ++delivered; });
  const auto b = network.add_endpoint(1, [&](net::Envelope) { ++delivered; });
  network.send(a, b, std::make_unique<Ping>());
  engine.run();
  ASSERT_EQ(delivered, 1);

  const Counter* dropped = reg.fed().find_counter("net.messages_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 0u);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"net.messages_dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"net.messages_delivered\":1"), std::string::npos);
  // Both sites' traffic counters appear, the silent one at zero.
  ASSERT_NE(reg.sites().find(1), reg.sites().end());
  EXPECT_EQ(reg.sites().at(1).find_counter("net.messages_sent")->value(), 0u);
  // The conditioner never armed: no weather counters.
  EXPECT_EQ(json.find("net.weather_drops"), std::string::npos);
}

}  // namespace
}  // namespace rbay::obs
