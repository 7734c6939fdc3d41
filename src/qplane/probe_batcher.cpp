#include "qplane/probe_batcher.hpp"

#include <utility>

namespace rbay::qplane {

bool ProbeBatcher::probe(const scribe::TopicId& topic, SizeCallback cb, const ProbeFn& issue) {
  auto& waiters = inflight_[topic];
  waiters.push_back(std::move(cb));
  if (waiters.size() > 1) return true;
  issue(topic, [this, topic](const SizeInfo& info) {
    auto it = inflight_.find(topic);
    if (it == inflight_.end()) return;
    // Detach the cohort before fanning out: a waiter's callback may issue
    // a fresh probe for the same topic, which must start a new walk.
    auto cohort = std::move(it->second);
    inflight_.erase(it);
    for (auto& waiter : cohort) waiter(info);
  });
  return false;
}

}  // namespace rbay::qplane
