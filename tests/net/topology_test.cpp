#include "net/topology.hpp"

#include <gtest/gtest.h>

namespace rbay::net {
namespace {

TEST(Topology, Ec2EightSitesMatchesTableII) {
  const auto topo = Topology::ec2_eight_sites();
  ASSERT_EQ(topo.site_count(), 8u);
  const auto vir = topo.site_by_name("Virginia");
  const auto sin = topo.site_by_name("Singapore");
  const auto sp = topo.site_by_name("SaoPaulo");
  const auto ire = topo.site_by_name("Ireland");
  // Spot-check the paper's Table II entries.
  EXPECT_DOUBLE_EQ(topo.rtt_ms(vir, vir), 0.559);
  EXPECT_DOUBLE_EQ(topo.rtt_ms(vir, sin), 275.549);
  EXPECT_DOUBLE_EQ(topo.rtt_ms(sin, sp), 396.856);
  EXPECT_DOUBLE_EQ(topo.rtt_ms(ire, sp), 325.274);
}

TEST(Topology, RttMatrixIsSymmetric) {
  const auto topo = Topology::ec2_eight_sites();
  for (SiteId a = 0; a < topo.site_count(); ++a) {
    for (SiteId b = 0; b < topo.site_count(); ++b) {
      EXPECT_DOUBLE_EQ(topo.rtt_ms(a, b), topo.rtt_ms(b, a));
    }
  }
}

TEST(Topology, DiagonalIsIntraSiteAndSmall) {
  const auto topo = Topology::ec2_eight_sites();
  for (SiteId a = 0; a < topo.site_count(); ++a) {
    EXPECT_LT(topo.rtt_ms(a, a), 1.0);
    EXPECT_GT(topo.rtt_ms(a, a), 0.0);
  }
}

TEST(Topology, OneWayIsHalfRtt) {
  const auto topo = Topology::ec2_eight_sites();
  const auto vir = topo.site_by_name("Virginia");
  const auto ore = topo.site_by_name("Oregon");
  EXPECT_EQ(topo.one_way(vir, ore), util::SimTime::millis(60.018 / 2));
}

TEST(Topology, SingleSiteFactory) {
  const auto topo = Topology::single_site(0.8);
  EXPECT_EQ(topo.site_count(), 1u);
  EXPECT_DOUBLE_EQ(topo.rtt_ms(0, 0), 0.8);
}

TEST(Topology, UniformFactory) {
  const auto topo = Topology::uniform(4, 0.5, 100.0);
  EXPECT_EQ(topo.site_count(), 4u);
  EXPECT_DOUBLE_EQ(topo.rtt_ms(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(topo.rtt_ms(0, 3), 100.0);
}

TEST(Topology, UnknownSiteNameViolatesContract) {
  const auto topo = Topology::ec2_eight_sites();
  EXPECT_THROW((void)topo.site_by_name("Atlantis"), util::ContractError);
}

TEST(Topology, MalformedMatrixRejected) {
  EXPECT_THROW(Topology({{"A"}, {"B"}}, {{0.5}}), util::ContractError);
  EXPECT_THROW(Topology({{"A"}}, {{0.5, 1.0}}), util::ContractError);
  EXPECT_THROW(Topology({}, {}), util::ContractError);
}

}  // namespace
}  // namespace rbay::net
