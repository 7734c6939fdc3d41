#pragma once

// Lock-striped ordered map for state shared across engine shards.
//
// The sharded engine (docs/PARALLEL_ENGINE.md) lets site shards execute
// concurrently, so registry structures keyed by cross-shard identifiers
// (query ids, trace ids) can no longer be bare std::maps.  StripedMap
// splits the key space over N independently-locked stripes — the
// ConcurrentMap idiom — so writers on different stripes never contend,
// while each stripe stays an *ordered* std::map so snapshot-time
// iteration can merge the stripes into one deterministic key order.
//
// Concurrency contract (narrower than a general concurrent map, and all
// the simulator needs):
//   * get_or_create()/find()/with() may be called from any shard;
//   * values are node-stable: returned pointers/references stay valid for
//     the map's lifetime, and mutating a *value* through a bare find()
//     pointer is safe only while each key is touched from one shard at a
//     time; a key genuinely shared across shards (a cross-site query's
//     trace) must instead mutate inside with()/get_or_create — under the
//     stripe lock — and make its snapshot ordering a pure function of the
//     recorded data, not of lock-acquisition order;
//   * size() is exact only when no writer is concurrent (snapshot time);
//   * for_each_ordered()/keys_ordered() are snapshot-time only.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace rbay::util {

template <typename Key, typename Value, std::size_t kStripes = 8>
class StripedMap {
  static_assert(kStripes > 0, "StripedMap needs at least one stripe");

 public:
  /// Locked reference to one value, held for the Access's lifetime.
  struct Access {
    std::unique_lock<std::mutex> guard;
    Value& ref;
  };

  /// Locks the key's stripe and returns the (created-if-absent) value.
  Access get_or_create(const Key& key) {
    Stripe& s = stripe_of(key);
    std::unique_lock<std::mutex> lk(s.mu);
    return Access{std::move(lk), s.entries[key]};
  }

  /// Raw pointer lookup, nullptr when absent.  The stripe lock is released
  /// before returning — see the concurrency contract above for when
  /// dereferencing is safe.
  Value* find(const Key& key) {
    Stripe& s = stripe_of(key);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.entries.find(key);
    return it == s.entries.end() ? nullptr : &it->second;
  }

  const Value* find(const Key& key) const {
    const Stripe& s = stripe_of(key);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.entries.find(key);
    return it == s.entries.end() ? nullptr : &it->second;
  }

  /// Runs `fn(value)` under the stripe lock; false when absent.
  template <typename Fn>
  bool with(const Key& key, Fn&& fn) {
    Stripe& s = stripe_of(key);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.entries.find(key);
    if (it == s.entries.end()) return false;
    fn(it->second);
    return true;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Stripe& s : stripes_) {
      std::lock_guard<std::mutex> lk(s.mu);
      n += s.entries.size();
    }
    return n;
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Snapshot-time ordered walk: visits every (key, value) in global key
  /// order by merging the per-stripe ordered maps.
  template <typename Fn>
  void for_each_ordered(Fn&& fn) const {
    std::vector<std::pair<const Key*, const Value*>> items;
    for (const Stripe& s : stripes_) {
      for (const auto& [k, v] : s.entries) items.emplace_back(&k, &v);
    }
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return *a.first < *b.first; });
    for (const auto& [k, v] : items) fn(*k, *v);
  }

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::map<Key, Value> entries;
  };

  Stripe& stripe_of(const Key& key) { return stripes_[std::hash<Key>{}(key) % kStripes]; }
  const Stripe& stripe_of(const Key& key) const {
    return stripes_[std::hash<Key>{}(key) % kStripes];
  }

  Stripe stripes_[kStripes];
};

}  // namespace rbay::util
