#include <gtest/gtest.h>

#include "baseline/ganglia.hpp"
#include "baseline/past_store.hpp"
#include "util/sha1.hpp"

namespace rbay::baseline {
namespace {

using util::SimTime;

TEST(PastStore, PutGetRemove) {
  PastStore store;
  const auto n1 = util::Sha1::hash128("n1");
  const auto n2 = util::Sha1::hash128("n2");
  store.put("GPU", n1);
  store.put("GPU", n2);
  store.put("GPU", n1);  // duplicate ignored
  EXPECT_EQ(store.get("GPU").size(), 2u);
  EXPECT_TRUE(store.get("Missing").empty());
  EXPECT_TRUE(store.remove("GPU", n1));
  EXPECT_EQ(store.get("GPU").size(), 1u);
  EXPECT_FALSE(store.remove("Nope", n1));
  EXPECT_TRUE(store.remove("GPU", n2));
  EXPECT_EQ(store.key_count(), 0u);
}

TEST(PastStore, FootprintScalesWithEntries) {
  PastStore small, large;
  small.put("a", util::Sha1::hash128("x"));
  for (int i = 0; i < 1000; ++i) {
    const std::string n = std::to_string(i);
    large.put(std::string("attr-").append(n), util::Sha1::hash128(std::string("n").append(n)));
  }
  EXPECT_GT(large.memory_footprint(), small.memory_footprint() * 100);
}

TEST(Ganglia, PollCycleAggregatesToCentral) {
  sim::Engine engine{1};
  GangliaFederation fed{engine, net::Topology::uniform(3, 0.5, 100.0), 10};
  fed.start();
  engine.run_until(SimTime::seconds(3));
  EXPECT_GE(fed.poll_cycles(), 2u);
  // Central saw cluster snapshots from all sites.
  EXPECT_GT(fed.central_bytes_received(), 0u);
  int matches = -1;
  fed.query(1, "attr-0", [&](int m) { matches = m; });
  engine.run_until(SimTime::seconds(4));
  EXPECT_EQ(matches, 30);  // 3 sites × 10 members all have attr-0
}

TEST(Ganglia, CentralBytesGrowLinearlyWithMembers) {
  auto central_bytes = [](std::size_t members) {
    sim::Engine engine{2};
    GangliaFederation fed{engine, net::Topology::uniform(2, 0.5, 50.0), members};
    fed.start();
    engine.run_until(SimTime::seconds(2));
    return fed.central_bytes_received();
  };
  const auto b10 = central_bytes(10);
  const auto b40 = central_bytes(40);
  // The central manager's inbound traffic is the scalability bottleneck:
  // 4× the members ≈ 4× the bytes.
  EXPECT_GT(b40, b10 * 3);
  EXPECT_LT(b40, b10 * 5);
}

TEST(Ganglia, QueriesFunnelThroughCentral) {
  sim::Engine engine{3};
  GangliaFederation fed{engine, net::Topology::ec2_eight_sites(), 5};
  fed.start();
  engine.run_until(SimTime::seconds(2));
  const auto msgs_before = fed.central_messages_received();
  int done = 0;
  for (net::SiteId s = 0; s < 8; ++s) {
    fed.query(s, "attr-1", [&](int) { ++done; });
  }
  engine.run_until(SimTime::seconds(4));
  EXPECT_EQ(done, 8);
  // Every query adds at least one message at the central manager.
  EXPECT_GE(fed.central_messages_received(), msgs_before + 8);
}

TEST(Ganglia, UpdatesAreStaleUntilNextPoll) {
  sim::Engine engine{4};
  GangliaFederation fed{engine, net::Topology::uniform(1, 0.5, 0.5), 4};
  fed.start();
  engine.run_until(SimTime::millis(1500));  // one poll cycle done (t = 1 s)

  // A brand-new attribute is invisible until the next cycle.
  fed.set_member_attribute(0, 0, "new-attr", store::AttributeValue{true});
  int matches = -1;
  fed.query(0, "new-attr", [&](int m) { matches = m; });
  engine.run_until(SimTime::millis(1600));
  EXPECT_EQ(matches, 0) << "central view should still be stale";

  engine.run_until(SimTime::millis(2500));  // second poll cycle (t = 2 s)
  fed.query(0, "new-attr", [&](int m) { matches = m; });
  engine.run_until(SimTime::millis(2600));
  EXPECT_EQ(matches, 1);
}

}  // namespace
}  // namespace rbay::baseline
