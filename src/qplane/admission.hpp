#pragma once

// Sliding-window admission controller for the query plane.
//
// Each query interface holds a configurable in-flight budget W and a FIFO
// backlog Q.  A submitted query either starts immediately (a window slot
// is free), waits in the backlog (slot busy, backlog not full), or is shed
// outright.  Releasing a slot starts the oldest queued query, so the
// window "slides" over the arrival stream in admission order.
//
// With Q = 0 the controller is an M/G/W/W loss system under Poisson
// arrivals: the shed fraction converges to the Erlang B formula
// B(W, lambda * L) regardless of the service-time distribution
// (insensitivity) — the property tests/qplane/admission_test.cpp checks.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "util/contract.hpp"

namespace rbay::qplane {

class AdmissionController {
 public:
  enum class Verdict { Admit, Queue, Shed };

  AdmissionController(int window, int queue_capacity)
      : window_(window), queue_capacity_(queue_capacity) {}

  [[nodiscard]] bool enabled() const { return window_ > 0; }

  /// True when `submit` would shed (window and backlog both full).
  [[nodiscard]] bool would_shed() const {
    return enabled() && inflight_ >= static_cast<std::size_t>(window_) &&
           queued() >= static_cast<std::size_t>(queue_capacity_);
  }

  /// Takes a slot for `start` (invoking it before returning) or queues it.
  /// Callers must check `would_shed()` first; submitting past capacity is
  /// a contract violation so shed bookkeeping stays in one place.
  Verdict submit(std::function<void()> start);

  /// Frees a slot.  If the backlog is non-empty the slot transfers to the
  /// oldest queued query, whose `start` runs before this returns.
  /// Re-entrant: a started query that completes synchronously and calls
  /// release() again only records the freed slot; the outermost call
  /// drains hand-offs iteratively in FIFO order.
  void release();

  [[nodiscard]] std::size_t inflight() const { return inflight_; }
  [[nodiscard]] std::size_t queued() const { return queued_ ? queued_->size() : 0; }
  [[nodiscard]] std::uint64_t admitted_total() const { return admitted_; }
  [[nodiscard]] std::uint64_t queued_total() const { return queued_total_; }

 private:
  int window_;
  int queue_capacity_;
  std::size_t inflight_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t queued_total_ = 0;
  /// FIFO backlog, allocated when the first query queues: an empty deque
  /// still holds a node and a map (~600 B), and most interfaces never queue.
  std::unique_ptr<std::deque<std::function<void()>>> queued_;
  /// Slots freed by re-entrant release() calls, drained iteratively by
  /// the outermost frame (see release()).
  std::size_t pending_releases_ = 0;
  bool draining_ = false;
};

/// Erlang B blocking probability B(servers, offered_load) via the stable
/// recurrence B(0) = 1, B(k) = a*B(k-1) / (k + a*B(k-1)).  The analytical
/// shed-rate expectation for a window of `servers` slots, no backlog,
/// Poisson arrivals of offered load a = lambda * mean_service_time.
double erlang_b(int servers, double offered_load);

}  // namespace rbay::qplane
