#include "qplane/admission.hpp"

namespace rbay::qplane {

AdmissionController::Verdict AdmissionController::submit(std::function<void()> start) {
  if (!enabled()) {
    ++inflight_;
    ++admitted_;
    start();
    return Verdict::Admit;
  }
  if (inflight_ < static_cast<std::size_t>(window_)) {
    ++inflight_;
    ++admitted_;
    start();
    return Verdict::Admit;
  }
  RBAY_REQUIRE(queued() < static_cast<std::size_t>(queue_capacity_),
               "admission submit past capacity: check would_shed() first");
  if (!queued_) queued_ = std::make_unique<std::deque<std::function<void()>>>();
  queued_->push_back(std::move(start));
  ++queued_total_;
  return Verdict::Queue;
}

void AdmissionController::release() {
  RBAY_REQUIRE(inflight_ > 0, "admission release without a matching admit");
  // A queued query whose `start` completes synchronously (e.g. every
  // probe answered from the cache) re-enters release() while this frame
  // is still mid-hand-off.  Running the hand-off from inside that nested
  // frame would recurse once per queued query — O(backlog) stack depth —
  // and interleave slot bookkeeping across frames.  Instead, nested calls
  // only record the freed slot; the outermost frame drains them in FIFO
  // order, one at a time, with inflight kept consistent throughout.
  ++pending_releases_;
  if (draining_) return;
  draining_ = true;
  while (pending_releases_ > 0) {
    --pending_releases_;
    if (queued() > 0) {
      // The freed slot transfers to the oldest queued query: inflight
      // stays constant across the hand-off.
      auto start = std::move(queued_->front());
      queued_->pop_front();
      ++admitted_;
      start();
    } else {
      --inflight_;
    }
  }
  draining_ = false;
}

double erlang_b(int servers, double offered_load) {
  double b = 1.0;
  for (int k = 1; k <= servers; ++k) {
    b = offered_load * b / (static_cast<double>(k) + offered_load * b);
  }
  return b;
}

}  // namespace rbay::qplane
