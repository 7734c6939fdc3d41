#pragma once

// Probe batcher: coalesces concurrent size-probes for the same
// (attribute, value) tree into one in-flight walk.
//
// The first waiter for a topic becomes the *leader* and issues the real
// probe (one tree walk, one root answer).  Waiters arriving while that
// walk is in flight piggyback on it: the leader's reply fans out to every
// waiter with the identical SizeInfo — byte-for-byte, the property
// tests/qplane/batcher_test.cpp checks.  Coalesced waiters share the
// leader's deadline (the PR 4 probe timeout): if the leader's walk times
// out, everyone gets the timeout answer at the leader's deadline rather
// than serializing their own timeouts.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "scribe/scribe.hpp"
#include "util/u128.hpp"

namespace rbay::qplane {

class ProbeBatcher {
 public:
  using SizeInfo = scribe::Scribe::SizeInfo;
  using SizeCallback = scribe::Scribe::SizeCallback;
  /// Issues the underlying probe (normally Scribe::probe_size).
  using ProbeFn = std::function<void(const scribe::TopicId&, SizeCallback)>;

  /// Registers `cb` as a waiter for `topic`.  If no walk is in flight for
  /// the topic, issues one via `issue` and returns false; otherwise
  /// coalesces onto it and returns true.
  bool probe(const scribe::TopicId& topic, SizeCallback cb, const ProbeFn& issue);

  [[nodiscard]] std::size_t inflight() const { return inflight_.size(); }

 private:
  std::unordered_map<scribe::TopicId, std::vector<SizeCallback>, util::U128Hash> inflight_;
};

}  // namespace rbay::qplane
