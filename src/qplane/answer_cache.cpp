#include "qplane/answer_cache.hpp"

#include <cstdlib>

namespace rbay::qplane {

AnswerCache::AnswerCache(util::SimTime ttl) : ttl_(ttl) {
  mutate_armed_ = std::getenv("RBAY_MODEL_MUTATE_CACHE") != nullptr;
}

std::optional<AnswerCache::SizeInfo> AnswerCache::lookup(const scribe::TopicId& topic,
                                                         util::SimTime now) {
  if (!enabled()) return std::nullopt;
  auto it = entries_.find(topic);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  const auto age = now - it->second.stored_at;
  if (age > ttl_) {
    if (!mutate_armed_) {
      entries_.erase(it);
      ++misses_;
      return std::nullopt;
    }
    // Deliberate bug for the oracle self-test: serve the expired entry
    // (once per cache instance) with its honest over-TTL age.
    mutate_armed_ = false;
  }
  ++hits_;
  SizeInfo info;
  info.value = it->second.value;
  info.epoch = it->second.epoch;
  info.stale = true;
  info.age = age;
  return info;
}

AnswerCache::StoreResult AnswerCache::store(const scribe::TopicId& topic, const SizeInfo& info,
                                            util::SimTime now) {
  if (!enabled()) return StoreResult::Skipped;
  if (info.stale) {
    // Degraded read: the root failed over and a promoted replica answered
    // from its snapshot.  Never cache it, and drop whatever we held — the
    // pre-failover answer's provenance is gone.  But only if the stale
    // answer is at least as recent as the cached one: a reordered (or
    // duplicated) stale reply from an older epoch must not evict an answer
    // the cache learned from a newer round.
    if (auto it = entries_.find(topic); it != entries_.end()) {
      if (info.epoch < it->second.epoch) return StoreResult::EpochRejected;
      entries_.erase(it);
      return StoreResult::Invalidated;
    }
    return StoreResult::Skipped;
  }
  if (auto it = entries_.find(topic); it != entries_.end() && info.epoch < it->second.epoch) {
    // Late-arriving fresh answer from an older replication epoch (a slow
    // probe overtaken by a newer round, or a pre-rotation answer landing
    // after the root set advanced).  Storing it would roll the cache back
    // in time; keep the newer entry.
    return StoreResult::EpochRejected;
  }
  entries_[topic] = Entry{info.value, info.epoch, now};
  return StoreResult::Stored;
}

}  // namespace rbay::qplane
