#pragma once

// Node reservations and conflict backoff (§III.D, step 4-5).
//
// When an anycast visits a node and the checks pass, "this receipt will
// reserve the node for the query"; if the customer does not commit, "the
// locks on those reserved nodes will be released after a short time
// window."  Concurrent customers that fail re-query after a truncated
// exponential backoff: after c failures, a random number of slot times
// between 0 and 2^c − 1.

#include <cstdint>
#include <optional>
#include <string>

#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "util/u128.hpp"

namespace rbay::query {

/// One query's identity: its origin node's NodeId and the sequence number
/// the origin's query interface gave it.  Reservations, commits, releases
/// and crash-release compare it exactly; only `to_string` formats it.
struct QueryId {
  util::U128 origin;
  std::uint64_t seq = 0;

  /// Bytes on the wire: 16 B origin + 8 B seq.
  static constexpr std::size_t kWireSize = 24;

  friend bool operator==(const QueryId&, const QueryId&) = default;
};

/// "<12 hex digits of the origin's top 48 bits>#<seq>": the key of the
/// query's trace (`.traces[]`, Chrome export) and the AAL onGet `caller`.
[[nodiscard]] std::string to_string(const QueryId& id);

/// Per-node reservation lock with expiry (lives on the resource node).
///
/// Lifecycle: try_reserve (short anycast hold) → commit (the customer
/// takes the node, optionally under a lease) → renew (extend the lease)
/// or release / lease expiry (the node returns to the pool).
class ReservationLock {
 public:
  /// Attempts to reserve for `holder` until `now + hold`.  Fails if an
  /// unexpired reservation by another holder exists.  `attempt` is the
  /// holder's query attempt; the lock remembers the latest that reserved.
  /// The holder may reserve again (a duplicated walk, or a later attempt's
  /// walk): that renews the hold.
  bool try_reserve(const QueryId& holder, util::SimTime now, util::SimTime hold,
                   int attempt = 0);

  /// Commits the reservation (the customer took the node).  Only the
  /// current holder may commit.  `lease` bounds the tenancy; zero means
  /// indefinitely.
  bool commit(const QueryId& holder, util::SimTime now,
              util::SimTime lease = util::SimTime::zero());

  /// Extends a live lease by the current holder to `now + lease`.
  bool renew(const QueryId& holder, util::SimTime now, util::SimTime lease);

  /// Explicitly releases `holder`'s reservation or committed lease.  A
  /// release from an attempt older than the latest that reserved is
  /// ignored: it is a late answer to a retried query, and the node now
  /// belongs to the later attempt.  Attempt 0 releases unconditionally.
  void release(const QueryId& holder, util::SimTime now, int attempt = 0);

  [[nodiscard]] bool reserved(util::SimTime now) const;
  [[nodiscard]] bool committed(util::SimTime now) const;
  /// The query holding or renting the node; nullopt when free.
  [[nodiscard]] const std::optional<QueryId>& holder() const { return holder_; }
  /// Lease end (zero = indefinite / not committed).
  [[nodiscard]] util::SimTime lease_expiry() const { return lease_expiry_; }
  /// End of the uncommitted anycast hold (meaningless once committed).
  [[nodiscard]] util::SimTime hold_expiry() const { return expiry_; }

 private:
  std::optional<QueryId> holder_;
  util::SimTime expiry_ = util::SimTime::zero();
  int attempt_ = 0;
  bool committed_ = false;
  bool lease_bounded_ = false;
  util::SimTime lease_expiry_ = util::SimTime::zero();
};

/// Truncated exponential backoff schedule for failed customers.
class Backoff {
 public:
  Backoff(util::SimTime slot, int max_exponent = 10)
      : slot_(slot), max_exponent_(max_exponent) {}

  /// Delay before the next re-query after the `failures`-th failure
  /// (failures ≥ 1): uniform in [0, 2^c − 1] slots, exponent truncated.
  util::SimTime delay_after(int failures, util::Rng& rng) const;

  [[nodiscard]] util::SimTime slot() const { return slot_; }

 private:
  util::SimTime slot_;
  int max_exponent_;
};

}  // namespace rbay::query
