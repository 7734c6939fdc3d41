#pragma once

// Discrete-event simulation engine.
//
// This is the substrate substituting for the paper's 160-VM EC2 testbed:
// every RBAY node is an in-process actor, every message delivery and timer
// is an event on one virtual clock.  Determinism rules:
//   * events at equal timestamps fire in schedule order (monotonic seq);
//   * all randomness flows through engine-owned seeded Rngs.
//
// Execution (docs/PARALLEL_ENGINE.md): the event queue is split into one
// *control* shard (shard 0: setup, benches, churn, fault injection,
// observers — anything that may touch cross-site god-view state) and one
// shard per site, each with its own queue, clock, seq counter, and Rng
// stream (util::Rng::stream(seed, shard)).  Site shards advance through
// conservative-lookahead windows:
//
//   window = [t_min, min(t_min + stride, t_ctl, deadline + 1us))
//
// where stride is the lookahead — the minimum cross-site one-way delay
// (set by the Network) — or a fixed 100ms quantum when no lookahead is set
// (single-site topologies have no cross-site links).  A message sent from
// inside the window can only land at or after the window's end, so shards
// never see each other mid-window.  Cross-shard schedules are staged in
// per-shard outboxes and integrated at the barrier in (time, source shard,
// source order) — a pure function of queue state, never of thread
// interleaving.  Control events act as barriers: whenever the control
// queue's head is due, all site shards are parked and control events drain
// serially, so churn, fault injection, and observers may touch anything.
//
// EngineConfig::threads only sets how many workers advance the site shards
// inside a window; threads == 1 runs the same windows on the calling
// thread.  The same seed therefore produces the same schedule — and the
// same metrics/trace/query bytes — at any worker-thread count; the
// parallel-equivalence matrix test pins this.  Between runs every shard
// clock agrees, so now() outside an event is the federation's time.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/contract.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace rbay::obs {
class Counter;
class Gauge;
class Registry;
}  // namespace rbay::obs

namespace rbay::sim {

using util::SimTime;

// Foreground / background events: everything scheduled from user code is
// *foreground*; periodic timers — and, transitively, anything scheduled
// while a background event runs — are *background*.  run() drains the
// queue only while foreground work remains, so a federation with periodic
// aggregation/heartbeat/monitoring timers still quiesces deterministically
// once the interesting work (queries, joins, multicasts) completes.

class Engine;

/// Engine configuration, fixed at engine construction.
struct EngineConfig {
  /// Worker threads that advance site shards inside a window.  Never
  /// changes the schedule; 1 (the default) runs windows on the caller.
  unsigned threads = 1;
  /// Ignored: every engine is sharded.  Kept only because perfbench's route_100k sets it.
  bool shard_by_site = false;

  /// Reads RBAY_SIM_THREADS (worker count) — how the ThreadSanitizer CI
  /// lane runs the whole cluster test suite on four workers.
  static EngineConfig from_env();
};

namespace detail {
/// Shared liveness record between a Timer and its queued event(s).
struct EventFlag {
  std::atomic<bool> alive{true};
  bool counts_foreground = false;
  /// Owning shard: which shard's foreground count this flag's claim
  /// lives in.
  std::uint32_t shard = 0;
  Engine* engine = nullptr;
};
}  // namespace detail

/// Cancellation token for a scheduled event.  The queue entry stays put,
/// but cancellation immediately releases the event's foreground claim, so
/// run() never waits out a dead timer's deadline.
///
/// A shard may cancel its own timers, and any context may cancel
/// control-owned timers (control events only fire at barriers, so the
/// cancellation is always observed before the event could run).
/// Cancelling another *site* shard's timer mid-window would be a
/// nondeterministic race and is forbidden by contract.
class Timer {
 public:
  Timer() = default;

  void cancel();
  [[nodiscard]] bool active() const {
    return flag_ && flag_->alive.load(std::memory_order_acquire);
  }

 private:
  friend class Engine;
  explicit Timer(std::shared_ptr<detail::EventFlag> flag) : flag_(std::move(flag)) {}
  std::shared_ptr<detail::EventFlag> flag_;
};

class Engine {
 public:
  explicit Engine(std::uint64_t seed = 0x5EED, EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Current time of the calling context's shard.
  [[nodiscard]] SimTime now() const;
  /// Rng stream of the calling context's shard.
  [[nodiscard]] util::Rng& rng();

  // --- shard topology ------------------------------------------------------

  /// Declares the site count; creates one shard per site (plus the control
  /// shard the engine is born with).  Called by the Network from its
  /// constructor; idempotent for the same count, a contract violation for
  /// a different one.  An engine without a Network runs everything on the
  /// control shard.
  void configure_shards(std::uint32_t site_count);
  /// Total shards including control.
  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// The shard that owns site `site`.
  [[nodiscard]] std::uint32_t shard_for_site(std::uint32_t site) const { return site + 1; }
  /// The shard of the currently executing context (0 outside any event).
  [[nodiscard]] std::uint32_t current_shard() const;

  /// Conservative lookahead: the minimum sim-time by which any cross-shard
  /// event must trail its sender's clock.  The Network sets it to the
  /// minimum cross-site one-way delay net of jitter shrink; must be
  /// positive.  Unset (the default) means "no cross-shard traffic";
  /// windows then advance by a fixed 100ms quantum, because quiescence
  /// and deadlines are only checked at barriers and a single-site
  /// federation's periodic timers would otherwise keep an unbounded
  /// window spinning forever.
  void set_cross_shard_lookahead(SimTime lookahead);
  [[nodiscard]] SimTime cross_shard_lookahead() const { return lookahead_; }

  /// Registers a hook run (in control context) at the top of every
  /// run()/run_until() — how the Network refreshes caches and pre-sizes
  /// flight rings before workers exist.
  void on_run_start(std::function<void()> hook) { run_hooks_.push_back(std::move(hook)); }

  /// Attaches an observability registry (nullptr detaches).  Detached is
  /// the default and costs one pointer check per event; attach *before*
  /// building the federation so components can cache their metric handles.
  /// The registry must outlive the engine's use of it.
  void set_metrics(obs::Registry* registry);
  [[nodiscard]] obs::Registry* metrics() const { return metrics_; }

  /// Schedules `fn` to run `delay` after the current time.  The event is
  /// foreground unless scheduled from within a background event.  Targets
  /// the calling context's shard (or the ShardScope-pinned shard when
  /// scheduling from setup code).
  Timer schedule(SimTime delay, std::function<void()> fn);

  /// Schedules `fn` onto a specific shard.  From inside a window, a
  /// cross-shard target must satisfy the lookahead contract:
  /// now() + delay >= the current window end.
  Timer schedule_on(std::uint32_t shard, SimTime delay, std::function<void()> fn);

  /// Schedules `fn` every `period`, starting one period from now, until the
  /// returned Timer is cancelled.  Periodic events are background.
  Timer schedule_periodic(SimTime period, std::function<void()> fn);

  /// Schedules a one-shot background event: it (and whatever it schedules)
  /// never keeps run() alive.  For ambient processes like churn drivers.
  Timer schedule_background(SimTime delay, std::function<void()> fn);

  /// Schedules `fn` every `period` as an *observer*: a background periodic
  /// event that is excluded from the engine's own metrics (`sim.events`,
  /// `sim.queue_depth`).  This is how the health plane samples sim-time
  /// state without perturbing the observed run — a same-seed run with and
  /// without observers attached produces a byte-identical registry
  /// snapshot, provided the observer callbacks themselves neither mutate
  /// simulation state nor draw from the engine Rng.
  Timer schedule_observer_periodic(SimTime period, std::function<void()> fn);

  /// Runs events (in timestamp order, background included) until no
  /// foreground event remains queued.  Afterwards every shard clock stands
  /// at the latest time any shard reached: never earlier than the last
  /// foreground event, and at most one window (lookahead or the 100ms
  /// quantum) past it.  Returns events dequeued.
  std::size_t run();

  /// Runs events with timestamp <= deadline (advances the clock to exactly
  /// the deadline afterwards).  Returns events executed.
  std::size_t run_until(SimTime deadline);

  /// Runs for `duration` of virtual time from now.
  std::size_t run_for(SimTime duration) { return run_until(now() + duration); }

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::size_t foreground_pending() const;
  [[nodiscard]] std::uint64_t executed() const;

  /// Pins the scheduling target for code running *outside* any event (node
  /// construction, setup): while alive, schedule()/schedule_periodic()/...
  /// from the control context enqueue onto `shard` instead of the control
  /// queue.  This is how per-node periodic timers (aggregation, heartbeat,
  /// maintenance, monitors) land on their node's site shard.  Does not
  /// affect now()/rng() — setup draws stay on the control stream.  Not for
  /// use inside worker events.
  class ShardScope {
   public:
    ShardScope(Engine& engine, std::uint32_t shard);
    ~ShardScope();
    ShardScope(const ShardScope&) = delete;
    ShardScope& operator=(const ShardScope&) = delete;

   private:
    Engine& engine_;
    std::uint32_t saved_;
  };

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    bool background = false;
    bool observer = false;
    std::shared_ptr<detail::EventFlag> flag;
    std::function<void()> fn;

    bool operator>(const Entry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  /// A cross-shard event parked in its source shard's outbox until the
  /// barrier integrates it in (at, src shard, src order) order.
  struct Staged {
    std::uint32_t dst = 0;
    std::uint32_t src = 0;
    std::uint64_t src_order = 0;
    SimTime at = SimTime::zero();
    bool background = false;
    bool observer = false;
    std::shared_ptr<detail::EventFlag> flag;
    std::function<void()> fn;
  };

  /// One site (or control) shard: queue, clock, seq, Rng, outbox.  All
  /// plain fields are touched only by the shard's worker inside a window
  /// or by the coordinator at barriers; `foreground` is atomic because
  /// staging and cross-shard cancels adjust it from other contexts.
  struct Shard {
    std::uint32_t id = 0;
    SimTime now = SimTime::zero();
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
    std::uint64_t popped = 0;  // dequeued entries, cancelled/observer included
    std::size_t observer_pending = 0;
    bool in_background = false;
    std::atomic<std::int64_t> foreground{0};
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    util::Rng rng{0};
    std::vector<Staged> outbox;
    std::uint64_t outbox_order = 0;

    explicit Shard(std::uint32_t shard_id, util::Rng shard_rng)
        : id(shard_id), rng(shard_rng) {}
  };

  friend class Timer;

  [[nodiscard]] std::uint32_t target_shard() const;  // default scheduling target
  void push(std::uint32_t dst, SimTime at, bool background, bool observer,
            std::shared_ptr<detail::EventFlag> flag, std::function<void()> fn);
  void enqueue_direct(Shard& dst, SimTime at, bool background, bool observer,
                      const std::shared_ptr<detail::EventFlag>& flag, std::function<void()> fn);
  Timer schedule_impl(std::uint32_t dst, SimTime delay, bool background, bool observer,
                      std::function<void()> fn);
  /// One firing of a periodic timer: runs `fn`, then re-pushes itself.
  void push_periodic(SimTime period, std::shared_ptr<detail::EventFlag> flag,
                     std::function<void()> fn, bool observer);
  void dispatch(Shard& shard, Entry e);
  void process_shard(Shard& shard, SimTime window_end);
  void run_window(SimTime window_end);
  void integrate_staged();
  void release_foreground(detail::EventFlag& flag);
  std::size_t run_windows(bool until_quiescent, SimTime deadline);
  void run_control_batch(SimTime at);
  [[nodiscard]] std::int64_t total_foreground() const;
  [[nodiscard]] std::uint64_t total_popped() const;
  void update_queue_gauge();
  void ensure_pool();
  void stop_pool();
  void worker_main();
  void set_exec_context(std::uint32_t shard);
  void clear_exec_context();

  const std::uint64_t seed_;
  const EngineConfig config_;

  obs::Registry* metrics_ = nullptr;
  obs::Counter* events_counter_ = nullptr;
  obs::Gauge* queue_gauge_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;  // [0] = control, [s+1] = site s
  SimTime lookahead_ = SimTime::micros(0);      // 0 = unset (no cross-shard traffic)
  SimTime window_end_ = SimTime::zero();        // current window bound (workers read)
  bool in_parallel_window_ = false;
  std::uint32_t ambient_shard_ = 0;  // ShardScope pin for setup-time scheduling
  std::vector<std::function<void()>> run_hooks_;
  std::vector<Staged> staged_scratch_;

  // Worker pool (created lazily on the first run with threads > 1).
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable cv_workers_;
  std::condition_variable cv_done_;
  std::uint64_t window_gen_ = 0;
  std::size_t pool_size_ = 0;
  std::size_t done_workers_ = 0;
  std::atomic<std::uint32_t> next_shard_claim_{1};
  bool stop_pool_ = false;
};

}  // namespace rbay::sim
