#pragma once

// Staleness-bounded answer cache for COUNT/size probe results.
//
// Only *fresh* root answers are cached (a degraded read is never cached —
// it evicts instead, which is how root failover invalidates the cache).
// A hit is surfaced as a staleness-tagged degraded read whose age is the
// time the entry spent in the cache, so the contract is:
//
//   cached staleness <= cache_ttl  (and thus <= cache_ttl + max_staleness)
//
// Expiry is checked on lookup; an entry older than the TTL is erased and
// the probe goes to the tree as usual.
//
// RBAY_MODEL_MUTATE_CACHE: when this environment variable is set at cache
// construction, the cache deliberately serves ONE expired entry (per
// instance) with its honest over-TTL age — the mutation the differential
// oracle's cache self-test must catch, shrink, and replay
// (tests/model/cache_mutation_test.cpp).

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "scribe/scribe.hpp"
#include "util/sim_time.hpp"
#include "util/u128.hpp"

namespace rbay::qplane {

class AnswerCache {
 public:
  using SizeInfo = scribe::Scribe::SizeInfo;

  explicit AnswerCache(util::SimTime ttl);

  [[nodiscard]] bool enabled() const { return ttl_ > util::SimTime::zero(); }
  [[nodiscard]] util::SimTime ttl() const { return ttl_; }

  /// Returns the cached answer for `topic` if one is live at `now`, tagged
  /// stale with age = time in cache.  Expired entries are erased (miss).
  std::optional<SizeInfo> lookup(const scribe::TopicId& topic, util::SimTime now);

  /// What `store` did: cached a fresh answer, evicted the entry for a
  /// degraded one, dropped one older than the entry's epoch, or nothing
  /// (cache off, or a degraded answer with no entry to evict).
  enum class StoreResult { Stored, Invalidated, EpochRejected, Skipped };

  /// Records a probe answer.  Fresh answers are stored unless their epoch
  /// is older than the cached entry's (a late answer from a previous
  /// replication round must not roll the cache back); degraded answers are
  /// never stored and evict any existing entry, so a root failover
  /// invalidates the cache the moment the promoted replica starts
  /// answering.
  StoreResult store(const scribe::TopicId& topic, const SizeInfo& info, util::SimTime now);

  void clear() { entries_.clear(); }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    double value = 0.0;
    std::uint64_t epoch = 0;
    util::SimTime stored_at = util::SimTime::zero();
  };

  util::SimTime ttl_;
  bool mutate_armed_ = false;  // RBAY_MODEL_MUTATE_CACHE latch
  std::unordered_map<scribe::TopicId, Entry, util::U128Hash> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace rbay::qplane
