#include "qplane/tree_sizes.hpp"

#include <cstdlib>
#include <utility>

namespace rbay::qplane {

TreeSizes::TreeSizes(util::SimTime ttl, bool batch, Clock now, ProbeFn probe,
                     AnswerHook on_answer)
    : ttl_(ttl), now_(std::move(now)), probe_(std::move(probe)), on_answer_(std::move(on_answer)),
      batch_(batch) {
  mutate_armed_ = std::getenv("RBAY_MODEL_MUTATE_CACHE") != nullptr;
}

TreeSizes::Read TreeSizes::read(const scribe::TopicId& topic, Callback cb) {
  if (caching()) {
    if (auto hit = lookup(topic)) {
      cb(*hit);
      return Read::Hit;
    }
  }
  if (!batch_) {
    probe_(topic, [this, topic, cb = std::move(cb)](const SizeInfo* info) {
      cb(take(topic, info));
    });
    return Read::Walk;
  }
  auto& cohort = entries_[topic].cohort;
  cohort.push_back(std::move(cb));
  if (cohort.size() > 1) return Read::Coalesced;
  probe_(topic, [this, topic](const SizeInfo* info) {
    auto it = entries_.find(topic);
    if (it == entries_.end()) return;
    auto waiters = std::exchange(it->second.cohort, {});
    if (!it->second.answer) entries_.erase(it);
    const auto size = take(topic, info);
    for (auto& waiter : waiters) waiter(size);
  });
  return Read::Walk;
}

std::optional<TreeSize> TreeSizes::lookup(const scribe::TopicId& topic) {
  auto it = entries_.find(topic);
  if (it == entries_.end() || !it->second.answer) {
    ++misses_;
    return std::nullopt;
  }
  const auto answer = *it->second.answer;
  const auto age = now_() - answer.stored_at;
  if (age > ttl_) {
    if (!mutate_armed_) {
      drop_answer(it);
      ++misses_;
      return std::nullopt;
    }
    // Deliberate bug for the oracle self-test: serve the expired answer
    // (once per table) with its honest over-TTL age.
    mutate_armed_ = false;
  }
  ++hits_;
  return TreeSize{TreeSize::From::Cache,
                  {.value = answer.value, .epoch = answer.epoch, .stale = true, .age = age}};
}

TreeSize TreeSizes::take(const scribe::TopicId& topic, const SizeInfo* info) {
  if (info == nullptr) return {};
  auto it = entries_.find(topic);
  const bool held = it != entries_.end() && it->second.answer;
  auto stored = Stored::Stored;
  if (!caching()) {
    stored = Stored::Skipped;
  } else if (held && info->epoch < it->second.answer->epoch) {
    // A late answer from an older replication epoch (a slow probe
    // overtaken by a newer round, or a pre-rotation answer landing after
    // the root set advanced) must neither roll the entry back nor evict it.
    stored = Stored::EpochRejected;
  } else if (info->stale) {
    // Degraded read: the root failed over and a promoted replica answered
    // from its snapshot.  Never store it, and drop what the entry held:
    // the pre-failover answer's provenance is gone.
    stored = held ? Stored::Invalidated : Stored::Skipped;
    if (held) drop_answer(it);
  } else {
    entries_[topic].answer = Answer{info->value, info->epoch, now_()};
  }
  on_answer_(*info, stored);
  return {TreeSize::From::Root, *info};
}

void TreeSizes::drop_answer(Entries::iterator it) {
  if (it->second.cohort.empty()) {
    entries_.erase(it);
  } else {
    it->second.answer.reset();
  }
}

}  // namespace rbay::qplane
