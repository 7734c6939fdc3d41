#include "query/reservation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>

namespace rbay::query {
namespace {

using util::SimTime;

// Three queries: two from one origin, one from another.
const QueryId kQ1{util::U128{0x0123456789abcdefULL, 0x42}, 1};
const QueryId kQ2{util::U128{0x0123456789abcdefULL, 0x42}, 2};
const QueryId kQ3{util::U128{0xfedcba9876543210ULL, 0x42}, 1};

TEST(QueryId, TextIsTwelveHexDigitsOfTheOriginThenSeq) {
  // Trace keys and AAL onGet policies depend on this exact text.
  EXPECT_EQ(to_string(QueryId{util::U128{0x0123456789abcdefULL, 0x42}, 7}), "0123456789ab#7");
  EXPECT_EQ(to_string(QueryId{util::U128{0x000000000000ffffULL, ~0ULL}, 18446744073709551615ULL}),
            "000000000000#18446744073709551615");
  EXPECT_EQ(to_string(kQ3), "fedcba987654#1");
}

TEST(ReservationLock, BasicReserveAndExpiry) {
  ReservationLock lock;
  EXPECT_FALSE(lock.reserved(SimTime::zero()));
  EXPECT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  EXPECT_TRUE(lock.reserved(SimTime::millis(100)));
  // After expiry the lock frees itself ("released after a short time window").
  EXPECT_FALSE(lock.reserved(SimTime::millis(600)));
  EXPECT_TRUE(lock.try_reserve(kQ2, SimTime::millis(600), SimTime::millis(500)));
}

TEST(ReservationLock, ConflictingReservationRejected) {
  ReservationLock lock;
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  EXPECT_FALSE(lock.try_reserve(kQ2, SimTime::millis(100), SimTime::millis(500)));
  // Same holder may refresh.
  EXPECT_TRUE(lock.try_reserve(kQ1, SimTime::millis(100), SimTime::millis(500)));
}

TEST(ReservationLock, CommitRequiresActiveReservation) {
  ReservationLock lock;
  EXPECT_FALSE(lock.commit(kQ1, SimTime::zero()));  // never reserved
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  EXPECT_FALSE(lock.commit(kQ2, SimTime::millis(10)));   // wrong holder
  EXPECT_FALSE(lock.commit(kQ1, SimTime::millis(600)));  // expired
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::millis(700), SimTime::millis(500)));
  EXPECT_TRUE(lock.commit(kQ1, SimTime::millis(800)));
  EXPECT_TRUE(lock.committed(SimTime::millis(900)));
  // Committed nodes are taken: nobody can reserve or re-commit.
  EXPECT_FALSE(lock.try_reserve(kQ3, SimTime::millis(900), SimTime::millis(500)));
  EXPECT_FALSE(lock.commit(kQ1, SimTime::millis(900)));
}

TEST(ReservationLock, ReleaseFreesOnlyOwnHold) {
  ReservationLock lock;
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  lock.release(kQ2, SimTime::millis(10));  // not the holder: no-op
  EXPECT_TRUE(lock.reserved(SimTime::millis(10)));
  lock.release(kQ1, SimTime::millis(10));
  EXPECT_FALSE(lock.reserved(SimTime::millis(10)));
}

TEST(ReservationLock, TenantCanReturnACommittedNode) {
  ReservationLock lock;
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  ASSERT_TRUE(lock.commit(kQ1, SimTime::millis(1)));
  // A stranger's release is a no-op...
  lock.release(kQ2, SimTime::millis(2));
  EXPECT_TRUE(lock.committed(SimTime::millis(2)));
  // ...but the tenant returns the node to the pool.
  lock.release(kQ1, SimTime::millis(3));
  EXPECT_FALSE(lock.committed(SimTime::millis(3)));
  EXPECT_TRUE(lock.try_reserve(kQ3, SimTime::millis(4), SimTime::millis(500)));
}

TEST(ReservationLock, LeaseExpiresAndFreesTheNode) {
  ReservationLock lock;
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  ASSERT_TRUE(lock.commit(kQ1, SimTime::millis(1), SimTime::seconds(10)));
  EXPECT_TRUE(lock.committed(SimTime::seconds(5)));
  EXPECT_FALSE(lock.committed(SimTime::seconds(11)));
  // After expiry a new customer can reserve.
  EXPECT_TRUE(lock.try_reserve(kQ2, SimTime::seconds(12), SimTime::millis(500)));
  EXPECT_EQ(lock.holder(), kQ2);
}

TEST(ReservationLock, RenewExtendsTheLease) {
  ReservationLock lock;
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  ASSERT_TRUE(lock.commit(kQ1, SimTime::millis(1), SimTime::seconds(10)));
  // Renew at t=8 for another 10 s: alive until ~18.
  EXPECT_TRUE(lock.renew(kQ1, SimTime::seconds(8), SimTime::seconds(10)));
  EXPECT_TRUE(lock.committed(SimTime::seconds(15)));
  EXPECT_FALSE(lock.committed(SimTime::seconds(19)));
  // Renewing an expired lease fails; so does a stranger's renewal.
  EXPECT_FALSE(lock.renew(kQ1, SimTime::seconds(20), SimTime::seconds(10)));
  ASSERT_TRUE(lock.try_reserve(kQ2, SimTime::seconds(21), SimTime::millis(500)));
  ASSERT_TRUE(lock.commit(kQ2, SimTime::seconds(21), SimTime::seconds(10)));
  EXPECT_FALSE(lock.renew(kQ1, SimTime::seconds(22), SimTime::seconds(10)));
}

TEST(ReservationLock, IndefiniteCommitNeedsNoRenewal) {
  ReservationLock lock;
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  ASSERT_TRUE(lock.commit(kQ1, SimTime::millis(1)));  // lease = zero
  EXPECT_TRUE(lock.committed(SimTime::seconds(1'000'000)));
  EXPECT_TRUE(lock.renew(kQ1, SimTime::seconds(5), SimTime::seconds(1)));  // no-op ok
  EXPECT_TRUE(lock.committed(SimTime::seconds(1'000'000)));
}

TEST(ReservationLock, ReleaseAfterLeaseExpiryClearsTenancyImmediately) {
  // Regression: release() used to no-op once the committed lease had
  // expired (committed(now) was already false), leaving holder_ and
  // lease_expiry_ stale until some later try_reserve.  The holder's
  // release must wipe its tenancy no matter when it arrives.
  ReservationLock lock;
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  ASSERT_TRUE(lock.commit(kQ1, SimTime::millis(1), SimTime::seconds(10)));
  ASSERT_FALSE(lock.committed(SimTime::seconds(11)));  // lease ran out

  lock.release(kQ1, SimTime::seconds(11));
  EXPECT_FALSE(lock.holder().has_value()) << "stale holder survived a late release";
  EXPECT_EQ(lock.lease_expiry(), SimTime::zero()) << "stale lease_expiry survived";
  EXPECT_FALSE(lock.reserved(SimTime::seconds(11)));
  EXPECT_TRUE(lock.try_reserve(kQ2, SimTime::seconds(12), SimTime::millis(500)));
}

TEST(ReservationLock, ReserveOverLapsedLeaseClearsTheOldLeaseExpiry) {
  // Regression: reclaiming an expired lease kept the old tenant's
  // lease_expiry, so the new query's hold reported the old lease's end.
  ReservationLock lock;
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  ASSERT_TRUE(lock.commit(kQ1, SimTime::millis(1), SimTime::seconds(10)));
  ASSERT_FALSE(lock.committed(SimTime::seconds(11)));  // lease ran out

  ASSERT_TRUE(lock.try_reserve(kQ3, SimTime::seconds(11), SimTime::millis(500)));
  EXPECT_EQ(lock.holder(), kQ3);
  EXPECT_EQ(lock.lease_expiry(), SimTime::zero()) << "old tenant's lease end survived";
  EXPECT_EQ(lock.hold_expiry(), SimTime::seconds(11) + SimTime::millis(500));
}

TEST(ReservationLock, RenewAfterLeaseExpiryFailsAndLeavesLockFree) {
  ReservationLock lock;
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  ASSERT_TRUE(lock.commit(kQ1, SimTime::millis(1), SimTime::seconds(10)));
  // Too late: the tenancy lapsed, renewal must not resurrect it.
  EXPECT_FALSE(lock.renew(kQ1, SimTime::seconds(11), SimTime::seconds(10)));
  EXPECT_FALSE(lock.committed(SimTime::seconds(12)));
  EXPECT_FALSE(lock.reserved(SimTime::seconds(12)));
}

TEST(ReservationLock, DifferentHolderReservesOverExpiredCommit) {
  ReservationLock lock;
  ASSERT_TRUE(lock.try_reserve(kQ1, SimTime::zero(), SimTime::millis(500)));
  ASSERT_TRUE(lock.commit(kQ1, SimTime::millis(1), SimTime::seconds(10)));

  // q2 takes the node straight off the expired commit — and from there the
  // full lifecycle works as if the lock were fresh.
  ASSERT_TRUE(lock.try_reserve(kQ2, SimTime::seconds(11), SimTime::millis(500)));
  EXPECT_EQ(lock.holder(), kQ2);
  EXPECT_FALSE(lock.committed(SimTime::seconds(11)));  // hold, not tenancy
  // The previous tenant lost all rights.
  EXPECT_FALSE(lock.commit(kQ1, SimTime::seconds(11)));
  EXPECT_TRUE(lock.commit(kQ2, SimTime::seconds(11), SimTime::seconds(5)));
  EXPECT_TRUE(lock.committed(SimTime::seconds(12)));
  lock.release(kQ2, SimTime::seconds(13));
  EXPECT_FALSE(lock.reserved(SimTime::seconds(13)));
}

TEST(Backoff, DelayWithinTruncatedExponentialRange) {
  util::Rng rng{11};
  const Backoff backoff{SimTime::millis(10), /*max_exponent=*/6};
  for (int failures = 1; failures <= 12; ++failures) {
    const int c = std::min(failures, 6);
    for (int trial = 0; trial < 50; ++trial) {
      const auto d = backoff.delay_after(failures, rng);
      EXPECT_GE(d.as_micros(), 0);
      EXPECT_LE(d.as_millis(), 10.0 * ((1 << c) - 1) + 1e-9)
          << "failures=" << failures << " trial=" << trial;
    }
  }
}

TEST(Backoff, ExpectedDelayGrowsWithFailures) {
  util::Rng rng{13};
  const Backoff backoff{SimTime::millis(10)};
  auto mean_delay = [&](int failures) {
    double sum = 0;
    for (int i = 0; i < 2000; ++i) sum += backoff.delay_after(failures, rng).as_millis();
    return sum / 2000;
  };
  const double d1 = mean_delay(1);
  const double d3 = mean_delay(3);
  const double d5 = mean_delay(5);
  EXPECT_LT(d1, d3);
  EXPECT_LT(d3, d5);
  // Aggressive customers wait longer: mean of U[0, 2^c-1] ≈ (2^c-1)/2 slots.
  EXPECT_NEAR(d1, 5.0, 2.0);    // (2^1-1)/2 = 0.5 slots → 5 ms
  EXPECT_NEAR(d5, 155.0, 25.0);  // (2^5-1)/2 = 15.5 slots → 155 ms
}

TEST(Backoff, DistributionCoversAllSlotsAndTruncatesAtMaxExponent) {
  util::Rng rng{23};
  const Backoff backoff{SimTime::millis(10), /*max_exponent=*/3};

  // failures=2 → uniform over {0..3} slots: every slot occurs, roughly
  // evenly (4000 draws, expected 1000 per slot).
  std::array<int, 4> histogram{};
  for (int i = 0; i < 4000; ++i) {
    const auto d = backoff.delay_after(2, rng);
    const auto slot = d.as_micros() / backoff.slot().as_micros();
    ASSERT_GE(slot, 0);
    ASSERT_LT(slot, 4);
    EXPECT_EQ(d.as_micros() % backoff.slot().as_micros(), 0)
        << "delay must be a whole number of slots";
    ++histogram[static_cast<std::size_t>(slot)];
  }
  for (int count : histogram) EXPECT_NEAR(count, 1000, 150);

  // Beyond max_exponent_ the window stops growing: failures 3, 4 and 40
  // all draw from {0..7} slots with the same mean.
  auto stats_for = [&](int failures) {
    double sum = 0;
    std::int64_t max_slot = 0;
    for (int i = 0; i < 4000; ++i) {
      const auto d = backoff.delay_after(failures, rng);
      const auto slot = d.as_micros() / backoff.slot().as_micros();
      EXPECT_LE(slot, 7) << "truncation at 2^3 - 1 slots violated";
      max_slot = std::max(max_slot, slot);
      sum += static_cast<double>(slot);
    }
    return std::pair{sum / 4000.0, max_slot};
  };
  const auto [mean3, max3] = stats_for(3);
  const auto [mean40, max40] = stats_for(40);
  EXPECT_EQ(max3, 7);
  EXPECT_EQ(max40, 7) << "window kept growing past max_exponent_";
  EXPECT_NEAR(mean3, 3.5, 0.3);
  EXPECT_NEAR(mean40, 3.5, 0.3);
}

TEST(Backoff, FirstFailureRequired) {
  util::Rng rng{17};
  const Backoff backoff{SimTime::millis(10)};
  EXPECT_THROW(backoff.delay_after(0, rng), util::ContractError);
}

}  // namespace
}  // namespace rbay::query
