#include "query/reservation.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/contract.hpp"

namespace rbay::query {

std::string to_string(const QueryId& id) {
  char text[40];
  std::snprintf(text, sizeof text, "%012" PRIx64 "#%" PRIu64, id.origin.hi() >> 16, id.seq);
  return text;
}

bool ReservationLock::committed(util::SimTime now) const {
  if (!committed_) return false;
  if (lease_bounded_ && now >= lease_expiry_) return false;  // lease ran out
  return true;
}

bool ReservationLock::reserved(util::SimTime now) const {
  return committed(now) || (!committed_ && holder_ && now < expiry_);
}

bool ReservationLock::try_reserve(const QueryId& holder, util::SimTime now,
                                  util::SimTime hold, int attempt) {
  if (committed(now)) return false;
  if (committed_) {
    // Previous tenancy's lease expired: the node is back in the pool.
    committed_ = false;
    lease_bounded_ = false;
    lease_expiry_ = util::SimTime::zero();
    holder_.reset();
  }
  const bool held = reserved(now);
  if (held && holder_ != holder) return false;
  attempt_ = holder_ == holder ? std::max(attempt_, attempt) : attempt;
  holder_ = holder;
  expiry_ = now + hold;
  return true;
}

bool ReservationLock::commit(const QueryId& holder, util::SimTime now,
                             util::SimTime lease) {
  if (committed(now)) return false;
  if (!reserved(now) || holder_ != holder) return false;
  committed_ = true;
  lease_bounded_ = lease > util::SimTime::zero();
  lease_expiry_ = lease_bounded_ ? now + lease : util::SimTime::zero();
  return true;
}

bool ReservationLock::renew(const QueryId& holder, util::SimTime now,
                            util::SimTime lease) {
  RBAY_REQUIRE(lease > util::SimTime::zero(), "renewal needs a positive lease");
  if (!committed(now) || holder_ != holder) return false;
  if (!lease_bounded_) return true;  // indefinite tenancy needs no renewal
  lease_expiry_ = now + lease;
  return true;
}

void ReservationLock::release(const QueryId& holder, util::SimTime now, int attempt) {
  (void)now;
  if (holder_ != holder || (attempt != 0 && attempt < attempt_)) return;
  // The holder's release always clears its tenancy — live lease, expired
  // lease, or plain anycast hold alike.  An expired lease must not linger
  // as stale committed_/lease_expiry_ state until the next try_reserve:
  // snapshots (holder(), lease_expiry()) read accurately immediately.
  committed_ = false;
  lease_bounded_ = false;
  lease_expiry_ = util::SimTime::zero();
  holder_.reset();
  expiry_ = util::SimTime::zero();
  attempt_ = 0;
}

util::SimTime Backoff::delay_after(int failures, util::Rng& rng) const {
  RBAY_REQUIRE(failures >= 1, "delay_after requires at least one failure");
  const int c = std::min(failures, max_exponent_);
  const std::uint64_t slots = (1ull << c);  // 2^c possibilities: 0..2^c-1
  const std::uint64_t chosen = rng.uniform(slots);
  return slot_ * static_cast<std::int64_t>(chosen);
}

}  // namespace rbay::query
