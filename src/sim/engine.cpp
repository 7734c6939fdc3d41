#include "sim/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "obs/exec_slot.hpp"
#include "obs/metrics.hpp"

namespace rbay::sim {

namespace {

constexpr SimTime kInfiniteTime = SimTime::micros(std::numeric_limits<std::int64_t>::max());

/// Window bound when no cross-shard lookahead is set (single-site
/// topologies have no cross-site links, so the Network never calls
/// set_cross_shard_lookahead).  An unbounded window would never return to
/// the barrier — quiescence and deadlines are only checked there — so a
/// self-rescheduling periodic timer (aggregation, heartbeat) would spin
/// the window forever while sim time runs away.  Any fixed bound is
/// deterministic (it is a pure function of queue state); 100ms keeps
/// barrier overhead negligible against the typical 200-250ms timer
/// periods while bounding the overshoot past the quiescent point to at
/// most one window of background events.
constexpr SimTime kNoLookaheadWindow = SimTime::millis(100);

/// Identifies the execution context of the current thread.  A worker sets
/// it to the shard it is advancing; the coordinator sets it to control (0)
/// around barriers and hooks.  The engine pointer guards against stale
/// state when multiple engines live in one process (tests build dozens).
struct ExecCtx {
  Engine* engine = nullptr;
  std::uint32_t shard = 0;
};

ExecCtx& exec_ctx() {
  static thread_local ExecCtx ctx;
  return ctx;
}

}  // namespace

EngineConfig EngineConfig::from_env() {
  EngineConfig config;
  if (const char* threads = std::getenv("RBAY_SIM_THREADS"); threads != nullptr) {
    const long parsed = std::strtol(threads, nullptr, 10);
    if (parsed >= 1) config.threads = static_cast<unsigned>(parsed);
  }
  return config;
}

Engine::Engine(std::uint64_t seed, EngineConfig config) : seed_(seed), config_(config) {
  // Control shard: draws the seed's own stream, so setup-time draws (id
  // mints, attribute synthesis, workload generation) do not depend on the
  // site count.
  shards_.push_back(std::make_unique<Shard>(0, util::Rng{seed}));
}

Engine::~Engine() {
  stop_pool();
  // Destroy the callbacks of events still pending; the pools then free
  // their nodes wholesale.
  for (auto& shard : shards_) {
    for (const Entry& e : shard->queue.entries()) e.node->destroy_callback();
    for (const Staged& s : shard->outbox) s.entry.node->destroy_callback();
  }
  if (exec_ctx().engine == this) exec_ctx() = ExecCtx{};
}

void Engine::set_metrics(obs::Registry* registry) {
  metrics_ = registry;
  if (registry == nullptr) return;
  registry->fed().counter<"sim.events">();
  registry->fed().gauge<"sim.queue_depth">();
  if (shards_.size() > 1) registry->set_exec_slots(static_cast<std::uint32_t>(shards_.size()));
}

void Engine::configure_shards(std::uint32_t site_count) {
  RBAY_REQUIRE(site_count >= 1, "Engine::configure_shards: need at least one site");
  if (shards_.size() == static_cast<std::size_t>(site_count) + 1) return;  // idempotent
  RBAY_REQUIRE(shards_.size() == 1,
               "Engine::configure_shards: shard topology already fixed at a different size");
  RBAY_REQUIRE(total_popped() == 0 && shards_[0]->queue.empty(),
               "Engine::configure_shards: must run before any event is scheduled or executed");
  RBAY_REQUIRE(site_count + 1 <= obs::kMaxExecSlots,
               "Engine::configure_shards: site count exceeds kMaxExecSlots execution slots");
  shards_.reserve(site_count + 1);
  for (std::uint32_t s = 0; s < site_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(s + 1, util::Rng::stream(seed_, s + 1)));
  }
  if (metrics_ != nullptr) {
    metrics_->set_exec_slots(static_cast<std::uint32_t>(shards_.size()));
  }
}

void Engine::set_cross_shard_lookahead(SimTime lookahead) {
  RBAY_REQUIRE(lookahead > SimTime::zero(),
               "Engine::set_cross_shard_lookahead: lookahead must be positive "
               "(zero-delay cross-site links cannot be windowed)");
  lookahead_ = lookahead;
}

SimTime Engine::now() const { return shards_[current_shard()]->now; }

util::Rng& Engine::rng() { return shards_[current_shard()]->rng; }

std::uint32_t Engine::current_shard() const {
  const ExecCtx& ctx = exec_ctx();
  return ctx.engine == this ? ctx.shard : 0;
}

bool Engine::running() const { return exec_ctx().engine == this; }

bool Engine::in_background() const { return shards_[current_shard()]->in_background; }

std::uint32_t Engine::target_shard() const {
  const ExecCtx& ctx = exec_ctx();
  if (ctx.engine == this) return ctx.shard;
  return ambient_shard_;  // setup code, possibly pinned by a ShardScope
}

void Engine::set_exec_context(std::uint32_t shard) {
  exec_ctx() = ExecCtx{this, shard};
  obs::exec_slot().index = shard;
}

void Engine::clear_exec_context() {
  exec_ctx() = ExecCtx{};
  obs::exec_slot() = obs::ExecSlot{};
}

// --- Timer -------------------------------------------------------------------

void Timer::cancel() {
  // A generation mismatch means the event already fired (or was cancelled
  // and popped) and the node now belongs to someone else.
  if (node_ == nullptr || node_->generation.load(std::memory_order_acquire) != generation_) return;
  // exchange() gates the foreground release: a cross-context cancel of a
  // control-owned timer must release exactly once.
  if (!node_->alive.exchange(false, std::memory_order_acq_rel)) return;
  if (node_->counts_foreground) {
    // Release the foreground claim immediately: run() must not wait out a
    // dead timer's deadline (processing background time in the meantime).
    node_->engine->release_foreground(node_->shard);
    node_->counts_foreground = false;
  }
}

void Engine::release_foreground(std::uint32_t shard) {
  shards_[shard]->foreground.fetch_sub(1, std::memory_order_acq_rel);
}

// --- event nodes ---------------------------------------------------------------

detail::EventNode* Engine::acquire_node() {
  // The calling context's shard is the only writer of its own free list:
  // its worker mid-window, or the coordinator at barriers and in setup.
  Shard& shard = *shards_[current_shard()];
  if (shard.free_nodes == nullptr) {
    // Chunks double from 64 nodes up to 4096, so a pool's slack stays a
    // small fraction of its high-water mark.
    const std::size_t n = std::clamp<std::size_t>(shard.node_count, 64, 4096);
    auto chunk = std::make_unique<detail::EventNode[]>(n);
    for (std::size_t i = 0; i < n; ++i) {
      detail::EventNode& node = chunk[i];
      node.engine = this;
      node.owner = shard.id;
      node.next_free = shard.free_nodes;
      shard.free_nodes = &node;
    }
    shard.node_chunks.push_back(std::move(chunk));
    shard.node_count += n;
  }
  detail::EventNode* node = shard.free_nodes;
  shard.free_nodes = node->next_free;
  return node;
}

void Engine::free_node(Shard& shard, detail::EventNode& node) {
  node.destroy_callback();
  node.generation.fetch_add(1, std::memory_order_release);
  if (node.owner == shard.id) {
    node.next_free = shard.free_nodes;
    shard.free_nodes = &node;
  } else {
    shard.foreign_nodes.push_back(&node);
  }
}

void Engine::return_foreign_nodes() {
  for (auto& shard : shards_) {
    for (detail::EventNode* node : shard->foreign_nodes) {
      Shard& owner = *shards_[node->owner];
      node->next_free = owner.free_nodes;
      owner.free_nodes = node;
    }
    shard->foreign_nodes.clear();
  }
}

// --- queues ------------------------------------------------------------------

namespace {
constexpr std::size_t kHeapArity = 4;
}  // namespace

void Engine::EventQueue::push(Entry e) {
  std::size_t hole = heap_.size();
  heap_.push_back(e);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!(e < heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

Engine::Entry Engine::EventQueue::pop() {
  const Entry head = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return head;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kHeapArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kHeapArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < last)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  return head;
}

Timer Engine::submit(detail::EventNode* node, std::uint32_t dst, SimTime delay, bool background,
                     bool observer, SimTime period) {
  node->background = background;
  node->observer = observer;
  node->period = period;
  node->counts_foreground = false;
  node->alive.store(true, std::memory_order_relaxed);
  const std::uint64_t generation = node->generation.load(std::memory_order_relaxed);
  push(dst, Entry{shards_[current_shard()]->now + delay, 0, node});
  return Timer{node, generation};
}

void Engine::push(std::uint32_t dst, Entry e) {
  RBAY_REQUIRE(dst < shards_.size(), "Engine::push: no such shard");
  detail::EventNode& node = *e.node;
  const std::uint32_t src = current_shard();
  const bool staged = in_parallel_window_ && src != dst;
  // Mid-window cross-shard push: the lookahead contract guarantees it
  // cannot land inside the window.  A violating event is never queued, so
  // its node (and callback) is released before the contract fails.
  if (staged && e.at < window_end_) free_node(*shards_[src], node);
  RBAY_REQUIRE(!staged || e.at >= window_end_,
               "Engine::push: cross-shard event violates the lookahead contract "
               "(delay shorter than the minimum cross-site delay)");
  node.shard = dst;
  if (!node.background) {
    // Claim the destination's foreground slot at push time (atomically —
    // the destination may belong to another shard), so the quiescence
    // check counts in-flight cross-shard messages.
    shards_[dst]->foreground.fetch_add(1, std::memory_order_acq_rel);
    node.counts_foreground = true;
  }
  if (staged) {
    // Park it in the source's outbox until the barrier.
    Shard& source = *shards_[src];
    source.outbox.push_back(Staged{dst, src, source.outbox_order++, e});
    return;
  }
  // Same shard, or a barrier/setup context with the workers parked: enqueue
  // directly (the foreground claim above already happened).
  enqueue_direct(*shards_[dst], e);
}

void Engine::enqueue_direct(Shard& dst, Entry e) {
  if (e.node->observer) ++dst.observer_pending;
  e.seq = dst.next_seq++;
  dst.queue.push(e);
}

void Engine::dispatch(Shard& shard, Entry e) {
  detail::EventNode& node = *e.node;
  ++shard.popped;
  if (node.observer) --shard.observer_pending;
  if (!node.alive.load(std::memory_order_acquire)) {
    free_node(shard, node);
    return;
  }
  if (!node.background) {
    shard.foreground.fetch_sub(1, std::memory_order_acq_rel);
    node.counts_foreground = false;
  }
  shard.now = e.at;
  // Stamp the execution slot: per-slot metric cells and causal-log state
  // key off it, and Gauge last-writer resolution keys off the time.
  obs::exec_slot() = obs::ExecSlot{shard.id, e.at.as_micros()};
  if (!node.observer) {
    ++shard.executed;
    if (metrics_ != nullptr) metrics_->fed().counter<"sim.events">().inc();
    // sim.queue_depth is refreshed at barriers (update_queue_gauge): a
    // mid-window global depth would depend on thread interleaving.
  }
  const bool saved = shard.in_background;
  shard.in_background = node.background;
  node.invoke();
  shard.in_background = saved;
  if (node.period > SimTime::zero() && node.alive.load(std::memory_order_relaxed)) {
    // A live periodic timer re-queues its own node one period on, on the
    // shard it fired on, after everything its callback scheduled.
    enqueue_direct(shard, Entry{e.at + node.period, 0, &node});
    return;
  }
  free_node(shard, node);
}

void Engine::process_shard(Shard& shard, SimTime window_end) {
  set_exec_context(shard.id);
  while (!shard.queue.empty() && shard.queue.top().at < window_end) {
    dispatch(shard, shard.queue.pop());
  }
}

void Engine::run_control_batch(SimTime at) {
  set_exec_context(0);
  Shard& ctl = *shards_[0];
  // All control work due now runs in one serial batch — including events a
  // batch member schedules at zero delay.  Site shards are parked, so the
  // batch may touch anything.
  while (!ctl.queue.empty() && ctl.queue.top().at == at) dispatch(ctl, ctl.queue.pop());
}

void Engine::integrate_staged() {
  return_foreign_nodes();
  staged_scratch_.clear();
  for (auto& shard : shards_) {
    staged_scratch_.insert(staged_scratch_.end(), shard->outbox.begin(), shard->outbox.end());
    shard->outbox.clear();
    shard->outbox_order = 0;
  }
  if (staged_scratch_.empty()) return;
  // (at, source shard, source order) is a pure function of the per-shard
  // deterministic event sequences — never of thread interleaving — so the
  // destination seq numbers this assigns are identical at any thread count.
  std::sort(staged_scratch_.begin(), staged_scratch_.end(), [](const Staged& a, const Staged& b) {
    if (a.entry.at != b.entry.at) return a.entry.at < b.entry.at;
    if (a.src != b.src) return a.src < b.src;
    return a.src_order < b.src_order;
  });
  for (Staged& s : staged_scratch_) {
    // Cancelled-in-flight events are enqueued anyway (dispatch frees dead
    // nodes); their foreground claim was already released by the cancel.
    enqueue_direct(*shards_[s.dst], s.entry);
  }
  staged_scratch_.clear();
}

void Engine::run_window(SimTime window_end) {
  if (pool_size_ == 0) {
    // One worker (threads == 1): shards advance through the window on the
    // calling thread in ascending id order.  This order
    // is what the slot-tie rules in the metric merges replicate.
    window_end_ = window_end;
    in_parallel_window_ = true;
    for (std::size_t s = 1; s < shards_.size(); ++s) process_shard(*shards_[s], window_end);
    in_parallel_window_ = false;
    set_exec_context(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    window_end_ = window_end;
    in_parallel_window_ = true;
    next_shard_claim_.store(1, std::memory_order_relaxed);
    done_workers_ = 0;
    ++window_gen_;
  }
  cv_workers_.notify_all();
  {
    std::unique_lock<std::mutex> lk(pool_mu_);
    cv_done_.wait(lk, [this] { return done_workers_ == pool_size_; });
    in_parallel_window_ = false;
  }
  set_exec_context(0);
}

void Engine::worker_main() {
  std::uint64_t seen_gen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      cv_workers_.wait(lk, [&] { return stop_pool_ || window_gen_ != seen_gen; });
      if (stop_pool_) return;
      seen_gen = window_gen_;
    }
    for (;;) {
      const std::uint32_t s = next_shard_claim_.fetch_add(1, std::memory_order_relaxed);
      if (s >= shards_.size()) break;
      process_shard(*shards_[s], window_end_);
    }
    clear_exec_context();
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      if (++done_workers_ == pool_size_) cv_done_.notify_one();
    }
  }
}

void Engine::ensure_pool() {
  if (config_.threads <= 1 || shards_.size() <= 1 || !workers_.empty()) return;
  pool_size_ = std::min<std::size_t>(config_.threads, shards_.size() - 1);
  workers_.reserve(pool_size_);
  for (std::size_t i = 0; i < pool_size_; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void Engine::stop_pool() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    stop_pool_ = true;
  }
  cv_workers_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  pool_size_ = 0;
  stop_pool_ = false;
}

void Engine::update_queue_gauge() {
  if (metrics_ == nullptr) return;
  std::size_t depth = 0;
  std::size_t observers = 0;
  for (const auto& shard : shards_) {
    depth += shard->queue.size() + shard->outbox.size();
    observers += shard->observer_pending;
  }
  // Stamp from the control slot at its current time: deterministic, and
  // the (stamp, slot) merge lets any later site-side writer win — there is
  // none, the engine is this gauge's only writer.
  obs::exec_slot() = obs::ExecSlot{0, shards_[0]->now.as_micros()};
  metrics_->fed().gauge<"sim.queue_depth">().set(static_cast<std::int64_t>(depth - observers));
}

std::int64_t Engine::total_foreground() const {
  std::int64_t n = 0;
  for (const auto& shard : shards_) n += shard->foreground.load(std::memory_order_acquire);
  return n;
}

std::uint64_t Engine::total_popped() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->popped;
  return n;
}

std::size_t Engine::run_windows(bool until_quiescent, SimTime deadline) {
  set_exec_context(0);
  for (const auto& hook : run_hooks_) hook();
  ensure_pool();
  const std::uint64_t popped_before = total_popped();
  for (;;) {
    integrate_staged();
    update_queue_gauge();
    if (until_quiescent && total_foreground() == 0) break;
    const Shard& ctl = *shards_[0];
    const SimTime tctl = ctl.queue.empty() ? kInfiniteTime : ctl.queue.top().at;
    SimTime tsite = kInfiniteTime;
    for (std::size_t s = 1; s < shards_.size(); ++s) {
      if (!shards_[s]->queue.empty()) tsite = std::min(tsite, shards_[s]->queue.top().at);
    }
    if (tctl == kInfiniteTime && tsite == kInfiniteTime) break;  // nothing queued anywhere
    if (!until_quiescent && std::min(tctl, tsite) > deadline) break;
    if (tctl <= tsite) {
      // Control events are barriers; at ties, control-first is canonical.
      run_control_batch(tctl);
      continue;
    }
    const SimTime stride = lookahead_ > SimTime::zero() ? lookahead_ : kNoLookaheadWindow;
    SimTime window_end = std::min(tsite + stride, tctl);
    if (!until_quiescent) window_end = std::min(window_end, deadline + SimTime::micros(1));
    run_window(window_end);
  }
  // Leave every clock where the federation stopped: the deadline, or the
  // latest time any shard reached.  No queue holds an event before that
  // time (each window and control batch drained everything below its end),
  // and it trails the last foreground event by at most one window.
  SimTime stop = deadline;
  if (until_quiescent) {
    for (const auto& shard : shards_) stop = std::max(stop, shard->now);
  }
  for (auto& shard : shards_) shard->now = stop;
  update_queue_gauge();
  clear_exec_context();
  return static_cast<std::size_t>(total_popped() - popped_before);
}

// --- run loops ---------------------------------------------------------------

std::size_t Engine::run() { return run_windows(/*until_quiescent=*/true, SimTime::zero()); }

std::size_t Engine::run_until(SimTime deadline) {
  RBAY_REQUIRE(deadline >= shards_[0]->now, "Engine::run_until: deadline is in the past");
  return run_windows(/*until_quiescent=*/false, deadline);
}

// --- introspection -----------------------------------------------------------

std::size_t Engine::pending() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->queue.size() + shard->outbox.size();
  return n;
}

std::size_t Engine::foreground_pending() const {
  const std::int64_t n = total_foreground();
  return n < 0 ? 0 : static_cast<std::size_t>(n);
}

std::size_t Engine::event_nodes() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->node_count;
  return n;
}

std::uint64_t Engine::executed() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->executed;
  return n;
}

// --- ShardScope --------------------------------------------------------------

Engine::ShardScope::ShardScope(Engine& engine, std::uint32_t shard)
    : engine_(engine), saved_(engine.ambient_shard_) {
  RBAY_REQUIRE(shard < engine_.shards_.size(), "ShardScope: no such shard");
  RBAY_REQUIRE(!engine_.in_parallel_window_, "ShardScope: not for use inside worker events");
  engine_.ambient_shard_ = shard;
}

Engine::ShardScope::~ShardScope() { engine_.ambient_shard_ = saved_; }

}  // namespace rbay::sim
