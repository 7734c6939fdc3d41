#pragma once

// One size read per tree (Fig. 7 steps 1-2; docs/QUERY_PLANE.md).  An
// entry, keyed by tree topic, holds the last root answer and the cohort of
// waiters on the walk in flight.  A read is served from the stored answer
// while it is at most `ttl` old (a stale-tagged hit whose age is its time
// in the table), else by joining the walk in flight (batching on), else by
// a fresh walk.  A walk's answer is stored once, then fans out to every
// waiter byte for byte; the cohort is detached first, so a waiter that
// reads the tree again from its callback starts a fresh walk.
//
// Only a root's fresh answer is stored.  A degraded (post-failover) one
// evicts the entry instead; an answer from an older epoch than the entry
// is refused.  A missed probe is no answer and leaves the table alone.
//
// RBAY_MODEL_MUTATE_CACHE set at construction makes the table serve ONE
// expired answer with its honest over-TTL age: the mutation the oracle's
// cache self-test must catch (tests/model/cache_mutation_test.cpp).

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "scribe/scribe.hpp"
#include "util/sim_time.hpp"
#include "util/u128.hpp"

namespace rbay::qplane {

/// One tree's size as a read got it.
struct TreeSize {
  /// Root: a root (or root-set holder) answered this read's walk.  Cache:
  /// the table's stored answer, `info.age` old.  Missed: the walk missed
  /// its deadline, and `info` says nothing.
  enum class From : std::uint8_t { Root, Cache, Missed };
  From from = From::Missed;
  scribe::SizeInfo info;
};

class TreeSizes {
 public:
  using SizeInfo = scribe::SizeInfo;
  using Callback = std::function<void(const TreeSize&)>;
  using Clock = std::function<util::SimTime()>;
  /// Issues one walk to a tree's root (normally Scribe::probe_size).
  using ProbeFn = std::function<void(const scribe::TopicId&, scribe::Scribe::SizeCallback)>;
  /// What a root's answer did to the table: stored it, evicted the entry
  /// (a degraded answer), refused it (older epoch than the entry), or
  /// nothing (caching off, or a degraded answer with no entry to evict).
  enum class Stored : std::uint8_t { Stored, Invalidated, EpochRejected, Skipped };
  /// Runs once per root answer, after the table took it and before the
  /// fan-out.
  using AnswerHook = std::function<void(const SizeInfo&, Stored)>;

  /// `ttl` zero turns caching off; `batch` coalesces concurrent reads of a
  /// tree onto one walk.
  TreeSizes(util::SimTime ttl, bool batch, Clock now, ProbeFn probe, AnswerHook on_answer);

  /// How a read was served.
  enum class Read : std::uint8_t { Hit, Walk, Coalesced };

  /// Reads `topic`'s size into `cb`: at once on a hit, else when the walk
  /// answers or misses (which may also be before this returns).
  Read read(const scribe::TopicId& topic, Callback cb);

  [[nodiscard]] bool caching() const { return ttl_ > util::SimTime::zero(); }
  [[nodiscard]] bool batching() const { return batch_; }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  /// Trees with a stored answer or a cohort waiting on a walk.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Answer {
    double value = 0.0;
    std::uint64_t epoch = 0;
    util::SimTime stored_at = util::SimTime::zero();
  };
  struct Entry {
    std::optional<Answer> answer;
    std::vector<Callback> cohort;  // waiters on the walk in flight (batching)
  };
  using Entries = std::unordered_map<scribe::TopicId, Entry, util::U128Hash>;

  /// The stored answer if it is live, as a stale-tagged read.
  std::optional<TreeSize> lookup(const scribe::TopicId& topic);
  /// Takes a walk's answer (null: missed) into the table and tells the
  /// hook; returns what the waiters read.
  TreeSize take(const scribe::TopicId& topic, const SizeInfo* info);
  /// Drops `it`'s answer, and the entry once nothing else holds it.
  void drop_answer(Entries::iterator it);

  util::SimTime ttl_;
  Clock now_;
  ProbeFn probe_;
  AnswerHook on_answer_;
  Entries entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  bool batch_;
  bool mutate_armed_ = false;  // RBAY_MODEL_MUTATE_CACHE latch
};

}  // namespace rbay::qplane
