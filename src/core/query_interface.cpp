#include "core/query_interface.hpp"

#include <algorithm>

#include "core/rbay_node.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/msg_tag.hpp"

namespace rbay::core {

namespace {

/// Slot time of the §III.D truncated exponential backoff: a retry waits a
/// uniform [0, 2^c - 1] slots after c failures.
constexpr util::SimTime kBackoffSlot = util::SimTime::millis(50);
/// GROUPBY over-collection: each site's anycast gathers this many times k
/// candidates so the interface can keep the best k and release the rest —
/// ranking needs candidates to choose among.
constexpr int kGroupByOversample = 3;

/// Causal log of the engine-attached registry, or nullptr when
/// observability is off.
obs::CausalLog* causal_log(sim::Engine& engine) {
  auto* registry = engine.metrics();
  return registry == nullptr ? nullptr : &registry->causal();
}

/// Records a phase point (obs/causal.hpp) as a child of `ctx`, so it lands
/// in that query's trace whatever is ambient — a timer or another query's
/// coalesced probe may have called us.
obs::TraceContext record_phase_point(obs::CausalLog* causal, const obs::TraceContext& ctx,
                                     RBayNode& node, const char* what, obs::Phase phase,
                                     util::SimTime since, int hops) {
  if (causal == nullptr) return {};
  obs::ContextScope scope(causal, ctx);
  return causal->phase_point(node.site(), node.self().endpoint, what, phase, since,
                             node.engine().now(), hops);
}

}  // namespace

QueryInterface::QueryInterface(RBayNode& owner, QueryConfig config)
    : owner_(owner), app_(owner.pastry().register_app(kAppName, this)), config_(config),
      admission_(config.qplane.admission_window, config.qplane.admission_queue),
      tree_sizes_(
          config.qplane.cache_ttl, config.qplane.batch_probes,
          [this] { return owner_.engine().now(); },
          [this](const scribe::TopicId& topic, scribe::Scribe::SizeCallback cb) {
            owner_.scribe().probe_size(topic, std::move(cb));
          },
          [this](const scribe::SizeInfo& info, qplane::TreeSizes::Stored stored) {
            // Once per root answer, however many reads it fans out to.
            auto* reg = owner_.engine().metrics();
            if (reg == nullptr) return;
            // Served by a non-root member of the tree's root set (hot-root
            // rotation): the probe never reached the rendezvous root.
            if (info.from_root_set) reg->fed().counter<"qplane.rootset_answers">().inc();
            // Invalidated: a degraded (post-failover) answer evicted the
            // stored one.  EpochRejected: an older epoch's answer was refused.
            if (stored == qplane::TreeSizes::Stored::Invalidated) {
              reg->fed().counter<"qplane.cache_invalidations">().inc();
            } else if (stored == qplane::TreeSizes::Stored::EpochRejected) {
              reg->fed().counter<"qplane.cache.epoch_rejects">().inc();
            }
          }) {
  // A walk that comes home after its deadline's miss carries member-side
  // reservations nobody will ever commit or release; free them the moment
  // the orphaned payload surfaces (see Scribe::complete_anycast).
  owner_.scribe().set_orphan_handler(
      [this](const scribe::TopicId& /*topic*/, scribe::AnycastPayload& payload) {
        if (auto* filled = util::msg_as<CandidatePayload>(payload)) {
          release_orphans(filled->job.query_id, filled->job.attempt, filled->found);
        }
      });
}

void QueryInterface::send_releases(const query::QueryId& query_id, int attempt,
                                   std::span<const Candidate> nodes) {
  for (const auto& c : nodes) {
    auto release = std::make_unique<ReleaseMsg>();
    release->query_id = query_id;
    release->attempt = attempt;
    owner_.pastry().send_direct(c.node, std::move(release), app_);
  }
}

void QueryInterface::release_orphans(const query::QueryId& query_id, int attempt,
                                     const std::vector<Candidate>& candidates) {
  if (candidates.empty()) return;
  send_releases(query_id, attempt, candidates);
  if (auto* reg = owner_.engine().metrics()) {
    reg->fed().counter<"query.orphan_releases">().inc(candidates.size());
  }
}

void QueryInterface::execute_sql(std::string_view sql, Callback callback) {
  auto parsed = query::parse_query(sql);
  if (!parsed.ok()) {
    QueryOutcome outcome;
    outcome.error = parsed.error();
    outcome.started = outcome.finished = owner_.engine().now();
    callback(outcome);
    return;
  }
  execute(parsed.take(), std::move(callback));
}

void QueryInterface::execute(query::Query query, Callback callback) {
  if (admission_.would_shed()) {
    shed_query(query, callback);
    return;
  }
  const auto id = next_id_++;
  Pending pending;
  pending.query = std::move(query);
  pending.callback = std::move(callback);
  pending.outcome.query_id = {owner_.self().id, id};
  pending.outcome.started = owner_.engine().now();
  if (auto* reg = owner_.engine().metrics()) {
    reg->fed().counter<"query.started">().inc();
    pending.ctx = reg->causal().begin_trace(to_string(pending.outcome.query_id), owner_.site(),
                                            owner_.self().endpoint, pending.outcome.started);
  }
  pending_.emplace(id, std::move(pending));
  // Window admission: start now if a slot is free, else wait in FIFO order
  // for complete() to release one.  Queue time counts against the query's
  // latency (`started` is already stamped).
  const auto verdict = admission_.submit([this, id]() { attempt(id); });
  if (auto* reg = owner_.engine().metrics()) {
    auto& fed = reg->fed();
    (verdict == qplane::AdmissionController::Verdict::Queue ? fed.counter<"qplane.queued">()
                                                            : fed.counter<"qplane.admitted">())
        .inc();
    fed.gauge<"qplane.inflight">().set(static_cast<std::int64_t>(admission_.inflight()));
    fed.gauge<"qplane.queue_depth">().set(static_cast<std::int64_t>(admission_.queued()));
  }
}

void QueryInterface::shed_query(const query::Query& /*query*/, Callback& callback) {
  QueryOutcome outcome;
  outcome.shed = true;
  outcome.started = outcome.finished = owner_.engine().now();
  if (auto* reg = owner_.engine().metrics()) reg->fed().counter<"qplane.shed">().inc();
  callback(outcome);
}

std::vector<net::SiteId> QueryInterface::resolve_sites(const query::Query& q,
                                                       std::string& error) const {
  const auto* dir = owner_.directory();
  std::vector<net::SiteId> sites;
  if (q.sites.empty()) {
    if (dir == nullptr) {
      sites.push_back(owner_.site());  // standalone node: own site only
      return sites;
    }
    for (net::SiteId s = 0; s < dir->site_names.size(); ++s) sites.push_back(s);
    return sites;
  }
  if (dir == nullptr) {
    error = "no federation directory: cannot resolve site names";
    return sites;
  }
  for (const auto& name : q.sites) {
    const auto site = dir->site_by_name(name);
    if (!site) {
      error = "unknown site: " + name;
      return {};
    }
    sites.push_back(*site);
  }
  return sites;
}

void QueryInterface::attempt(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  auto& p = it->second;
  ++p.outcome.attempts;
  p.gathered.clear();
  p.empty_sites = 0;
  p.count_total = 0.0;
  p.outcome.sites_answered.clear();

  // Everything this attempt dispatches descends from the stored context:
  // the trace root on attempt 1, the backoff_retry event on later attempts.
  // The dispatch legs (site requests, size probes) are Probe-phase work.
  auto* causal = causal_log(owner_.engine());
  p.ctx.attempt = static_cast<std::uint8_t>(std::min(p.outcome.attempts, 255));
  obs::TraceContext actx = p.ctx;
  actx.phase = static_cast<std::uint8_t>(obs::Phase::kProbe);
  obs::ContextScope attempt_scope(causal, actx);

  std::string error;
  auto sites = resolve_sites(p.query, error);
  if (!error.empty() || sites.empty()) {
    p.outcome.error = error.empty() ? "no sites to query" : error;
    finish_attempt(id);
    return;
  }
  p.outcome.sites_queried = static_cast<int>(sites.size());
  p.waiting_sites = static_cast<int>(sites.size());

  SiteJob job;
  job.query_id = p.outcome.query_id;
  job.attempt = p.outcome.attempts;
  job.count_only = p.query.count_only;
  job.k = p.query.group_by ? p.query.k * kGroupByOversample : p.query.k;
  job.get_payload = p.query.payload;
  job.predicates = p.query.predicates;
  job.group_by = p.query.group_by;
  job.hold = config_.reservation_hold;

  const int attempt_no = p.outcome.attempts;
  for (const auto site : sites) {
    if (site == owner_.site()) {
      // Local part runs on this very node's query interface.
      run_site_query(job, [this, id, attempt_no](SiteResult result) {
        auto pit = pending_.find(id);
        if (pit == pending_.end() || pit->second.outcome.attempts != attempt_no) {
          // Late local answer.
          release_orphans({owner_.self().id, id}, attempt_no, result.candidates);
          return;
        }
        result.site = owner_.site();
        site_done(id, std::move(result));
      });
    } else {
      const auto* dir = owner_.directory();
      RBAY_REQUIRE(dir != nullptr && site < dir->gateways.size(),
                   "cross-site query without gateway directory");
      auto req = std::make_unique<SiteQueryRequest>();
      req->origin = owner_.self();
      req->job = job;
      owner_.pastry().send_direct(dir->gateways[site], std::move(req), app_);
    }
  }

  // Sites that never answer (lost messages under churn, dead tree nodes)
  // must not hang the query: treat them as empty at the deadline.  Armed
  // only for an attempt that still waits: the local site may have answered
  // inside the loop (a COUNT served from the size table) and ended it.
  it = pending_.find(id);
  if (it == pending_.end() || it->second.outcome.attempts != attempt_no ||
      it->second.waiting_sites <= 0) {
    return;
  }
  it->second.timeout = owner_.engine().schedule(config_.site_timeout, [this, id, attempt_no]() {
    auto tit = pending_.find(id);
    if (tit == pending_.end()) return;
    auto& tp = tit->second;
    if (tp.outcome.attempts != attempt_no || tp.waiting_sites <= 0) return;
    // A timer firing has no ambient context; rejoin the trace through the
    // stored per-query context so the timeout (and whatever finish_attempt
    // does next) stays on the causal chain.
    auto* tcausal = causal_log(owner_.engine());
    obs::ContextScope rejoin(tcausal, tp.ctx);
    obs::ContextScope fire(tcausal,
                           tcausal != nullptr
                               ? tcausal->local(owner_.site(), owner_.self().endpoint,
                                                "query.site_timeout", owner_.engine().now())
                               : obs::TraceContext{});
    if (auto* reg = owner_.engine().metrics()) {
      reg->fed().counter<"query.site_timeouts">().inc(
          static_cast<std::uint64_t>(tp.waiting_sites));
    }
    tp.outcome.sites_timed_out += tp.waiting_sites;
    tp.waiting_sites = 0;
    finish_attempt(id);
  });
}

void QueryInterface::site_done(std::uint64_t id, SiteResult result) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  auto& p = it->second;
  p.outcome.members_visited += result.visited;
  p.outcome.sites_answered.push_back(result.site);
  p.count_total += result.count;
  if (result.trees_empty) ++p.empty_sites;
  if (result.stale) {
    p.outcome.stale = true;
    p.outcome.staleness = std::max(p.outcome.staleness, result.staleness);
  }
  if (result.cached) p.outcome.cached = true;
  for (auto& c : result.candidates) p.gathered.push_back(std::move(c));
  if (--p.waiting_sites == 0) finish_attempt(id);
}

void QueryInterface::complete(std::map<std::uint64_t, Pending>::iterator it) {
  auto& p = it->second;
  p.outcome.finished = owner_.engine().now();
  std::sort(p.outcome.sites_answered.begin(), p.outcome.sites_answered.end());
  if (auto* reg = owner_.engine().metrics()) {
    auto& fed = reg->fed();
    (p.outcome.satisfied ? fed.counter<"query.satisfied">() : fed.counter<"query.failed">()).inc();
    fed.counter<"query.attempts">().inc(static_cast<std::uint64_t>(p.outcome.attempts));
    fed.latency<"query.latency">().add(p.outcome.latency());
    reg->site(owner_.site()).latency<"query.latency">().add(p.outcome.latency());
    // Terminus of the causal chain: its parent is the ambient span (the
    // final reply/timeout that completed the query), making the walk from
    // here backward the critical path.
    reg->causal().finish_trace(p.ctx, owner_.site(), owner_.self().endpoint,
                               p.outcome.finished, p.outcome.satisfied, p.outcome.attempts);
  }
  auto cb = std::move(p.callback);
  auto outcome = std::move(p.outcome);
  pending_.erase(it);
  // Free the admission slot first: the oldest queued query (if any) starts
  // inside release(), so the window stays saturated under backlog.
  admission_.release();
  if (auto* reg = owner_.engine().metrics()) {
    auto& fed = reg->fed();
    fed.gauge<"qplane.inflight">().set(static_cast<std::int64_t>(admission_.inflight()));
    fed.gauge<"qplane.queue_depth">().set(static_cast<std::int64_t>(admission_.queued()));
  }
  cb(outcome);
}

void QueryInterface::finish_attempt(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  auto& p = it->second;

  p.timeout.cancel();
  if (!p.outcome.error.empty()) {
    p.outcome.satisfied = false;
    complete(it);
    return;
  }

  // Attachment point for the causal work below: the ambient span when it
  // belongs to this trace (the reply that closed the attempt), else the
  // stored per-query context.
  auto* causal = causal_log(owner_.engine());
  obs::TraceContext base = causal != nullptr ? causal->current() : obs::TraceContext{};
  if (!base.active() || base.trace_id != p.ctx.trace_id) base = p.ctx;

  if (p.query.count_only) {
    // Aggregate answer: no reservations, no retries.  A degraded read (a
    // promoted root answered from its replicated snapshot) still satisfies
    // the query — tagged so the customer can judge the bounded staleness.
    p.outcome.count = p.count_total;
    p.outcome.satisfied = true;
    if (p.outcome.stale) {
      if (auto* reg = owner_.engine().metrics()) {
        reg->fed().counter<"query.stale_answers">().inc();
        if (p.outcome.cached) reg->fed().counter<"query.cached_answers">().inc();
        obs::ContextScope stale_scope(causal, base);
        causal->local(owner_.site(), owner_.self().endpoint, "query.stale_answer",
                      owner_.engine().now(), static_cast<int>(obs::Phase::kProbe));
      }
    }
    complete(it);
    return;
  }

  // Deterministic candidate order: GROUPBY value (candidates without a
  // numeric one last), ties by node id.
  const bool desc = p.query.descending;
  std::sort(p.gathered.begin(), p.gathered.end(), [&](const Candidate& a, const Candidate& b) {
    if (a.has_sort_value != b.has_sort_value) return a.has_sort_value;
    if (a.sort_value != b.sort_value) {
      return desc ? a.sort_value > b.sort_value : a.sort_value < b.sort_value;
    }
    return a.node.id < b.node.id;
  });

  const auto want = static_cast<std::size_t>(p.query.k);
  if (p.gathered.size() >= want) {
    p.outcome.nodes.assign(p.gathered.begin(), p.gathered.begin() + static_cast<long>(want));
    obs::TraceContext cctx = base;
    cctx.phase = static_cast<std::uint8_t>(obs::Phase::kCommit);
    obs::ContextScope commit_scope(causal, cctx);
    // Release the surplus reservations immediately.
    send_releases(p.outcome.query_id, p.outcome.attempts,
                  std::span<const Candidate>(p.gathered).subspan(want));
    // Step 5 span: the commit/release dispatch; hops = every reservation
    // dispositioned (k kept + surplus released).
    record_phase_point(causal, cctx, owner_, "query.commit", obs::Phase::kCommit,
                       owner_.engine().now(), static_cast<int>(p.gathered.size()));
    p.outcome.satisfied = true;
    complete(it);
    return;
  }

  // Not enough: release everything and retry after truncated exponential
  // backoff, or give up after max_attempts or on a definitive no from
  // every queried site.
  {
    obs::TraceContext rctx = base;
    rctx.phase = static_cast<std::uint8_t>(obs::Phase::kCommit);
    obs::ContextScope release_scope(causal, rctx);
    send_releases(p.outcome.query_id, p.outcome.attempts, p.gathered);
  }
  p.gathered.clear();

  if (p.outcome.attempts >= config_.max_attempts ||
      p.empty_sites == p.outcome.sites_queried) {
    p.outcome.satisfied = false;
    complete(it);
    return;
  }

  const query::Backoff backoff{kBackoffSlot};
  const auto delay = backoff.delay_after(p.outcome.attempts, owner_.engine().rng());
  if (auto* reg = owner_.engine().metrics()) reg->fed().counter<"query.backoff_retries">().inc();
  if (causal != nullptr) {
    // Move the re-attachment point to a "query.backoff_retry" event hanging
    // off the reply that ended this attempt: the next attempt's messages
    // chain through it, so the critical path covers the failed attempt and
    // the backoff wait.
    obs::ContextScope retry_scope(causal, base);
    p.ctx = causal->local(owner_.site(), owner_.self().endpoint, "query.backoff_retry",
                          owner_.engine().now(), static_cast<int>(obs::kPhaseNone));
  }
  owner_.engine().schedule(delay, [this, id]() { attempt(id); });
}

// --- site-local execution (five steps of Fig. 7) ---------------------------------

std::vector<std::size_t> QueryInterface::plan_trees(
    const std::vector<query::Predicate>& predicates) const {
  std::vector<std::size_t> out;
  const auto* trees = owner_.tree_table();
  if (trees == nullptr) return out;
  auto add = [&](std::size_t spec) {
    if (std::find(out.begin(), out.end(), spec) == out.end()) out.push_back(spec);
  };
  for (const auto& pred : predicates) {
    if (const auto spec = trees->spec_index(pred.canonical())) {
      add(*spec);
      continue;
    }
    // Hybrid naming: resolve a minor attribute to its major's existence
    // tree ("link this new attribute to certain major tree", §III.C).
    if (const auto* taxonomy = owner_.taxonomy()) {
      if (auto major = taxonomy->major_of(pred.attribute)) {
        if (const auto spec = trees->spec_index("has:" + *major)) add(*spec);
      }
    }
  }
  return out;
}

void QueryInterface::run_site_query(SiteJob job, std::function<void(SiteResult)> done) {
  const auto trees = plan_trees(job.predicates);
  if (trees.empty()) {
    // No predicate resolves to a tree, and the tree table cannot change
    // while the query runs: nothing here can match.
    SiteResult none;
    none.trees_empty = true;
    done(std::move(none));
    return;
  }

  struct ProbeState {
    SiteJob job;
    std::vector<scribe::TopicId> topics;
    /// Each tree's size: from its root on this attempt, from the size
    /// table's stored answer, or missed.
    std::vector<qplane::TreeSize> sizes;
    std::size_t remaining = 0;
    util::SimTime probe_start = util::SimTime::zero();
    // The answer under construction.
    SiteResult result;
    // This site query's own causal context (phase points hang off it).
    obs::TraceContext ctx;
    std::function<void(SiteResult)> done;
  };
  auto state = std::make_shared<ProbeState>();
  state->job = std::move(job);
  state->done = std::move(done);
  state->sizes.resize(trees.size());
  state->remaining = trees.size();
  state->probe_start = owner_.engine().now();
  for (const auto spec : trees) {
    state->topics.push_back(owner_.tree_table()->topic(spec, owner_.site()));
  }

  auto anycast_smallest = [this, state]() {
    const auto probe_end = owner_.engine().now();
    auto* causal = causal_log(owner_.engine());
    if (auto* reg = owner_.engine().metrics()) {
      reg->fed().latency<"query.phase_probe">().add(probe_end - state->probe_start);
    }
    // Steps 1-2 finished: one probe span per site attempt, hops = trees
    // probed.  Cache hits and coalesced probes send no message of their
    // own, so the count is recorded here.
    record_phase_point(causal, state->ctx, owner_, "query.probe", obs::Phase::kProbe,
                       state->probe_start, static_cast<int>(state->topics.size()));
    // Step 3: "choose the tree with smaller size to send another anycast",
    // over the sizes a root or the table gave; a missed probe says nothing.
    // Degraded reads accumulate: stale if any root answered stale or the
    // table served a stored answer, staleness the oldest such answer's age.
    using From = qplane::TreeSize::From;
    auto& result = state->result;
    std::size_t best = SIZE_MAX;
    bool root_said_empty = false;
    for (std::size_t i = 0; i < state->sizes.size(); ++i) {
      const auto& size = state->sizes[i];
      if (size.from == From::Missed) continue;
      if (size.info.stale) {
        result.stale = true;
        result.cached = result.cached || size.from == From::Cache;
        result.staleness = std::max(result.staleness, size.info.age);
      }
      if (size.from == From::Root && size.info.value <= 0.0) root_said_empty = true;
      if (best == SIZE_MAX || size.info.value < state->sizes[best].info.value) best = i;
    }
    if (best == SIZE_MAX || state->sizes[best].info.value <= 0.0) {
      // Every probe missed, or a predicate's tree has no members here, so
      // no node can match and COUNT reads 0.  The no is final only when a
      // root said so on this attempt: a stored size may be up to the TTL
      // old, and a miss is no answer.
      result.trees_empty = root_said_empty;
      state->done(std::move(result));
      return;
    }
    if (state->job.count_only) {
      // SELECT COUNT stops after steps 1-2: the root's aggregate IS the
      // answer (exact for a single tree-backed predicate; the smallest
      // tree's size is the tight upper bound for conjunctions).
      result.count = state->sizes[best].info.value;
      state->done(std::move(result));
      return;
    }
    auto payload = std::make_unique<CandidatePayload>();
    payload->job = std::move(state->job);
    const auto anycast_start = probe_end;
    // Step 3 opens here; the walk's end points are children of this one.
    const obs::TraceContext anycast_ctx =
        record_phase_point(causal, state->ctx, owner_, "query.anycast", obs::Phase::kAnycast,
                           anycast_start, 0);
    // The dispatch leg toward the tree carries the Anycast phase; the first
    // tree node remaps it to MemberSearch for the DFS walk.
    obs::TraceContext dispatch_ctx =
        causal != nullptr ? causal->current() : obs::TraceContext{};
    dispatch_ctx.phase = static_cast<std::uint8_t>(obs::Phase::kAnycast);
    obs::ContextScope dispatch_scope(causal, dispatch_ctx);
    owner_.scribe().anycast(
        state->topics[best], std::move(payload),
        [this, state, anycast_start, anycast_ctx](bool /*satisfied*/, int visited,
                                                  scribe::AnycastPayload* result) {
          // The walk carries the CandidatePayload this query built; a walk
          // that missed its deadline carries nothing (no candidates).
          auto* filled = result != nullptr ? util::msg_as<CandidatePayload>(*result) : nullptr;
          const auto end = owner_.engine().now();
          if (auto* reg = owner_.engine().metrics()) {
            reg->fed().latency<"query.phase_anycast">().add(end - anycast_start);
          }
          // The walk's end closes step 3; steps 4a/4b share its sim-time but
          // count different work: members visited vs slots actually filled.
          auto* causal = causal_log(owner_.engine());
          record_phase_point(causal, anycast_ctx, owner_, "query.member_search",
                             obs::Phase::kMemberSearch, anycast_start, visited);
          record_phase_point(causal, anycast_ctx, owner_, "query.slots_filled",
                             obs::Phase::kSlotFill, anycast_start,
                             filled != nullptr ? static_cast<int>(filled->found.size()) : 0);
          if (filled != nullptr) state->result.candidates = std::move(filled->found);
          state->result.visited = visited;
          state->done(std::move(state->result));
        });
  };

  // Steps 1-2: read every predicate tree's size in parallel.  Probe
  // requests are Probe-phase causal children of whatever dispatched this
  // site query (local attempt or gateway request).
  auto* causal = causal_log(owner_.engine());
  obs::TraceContext probe_ctx = causal != nullptr ? causal->current() : obs::TraceContext{};
  probe_ctx.phase = static_cast<std::uint8_t>(obs::Phase::kProbe);
  state->ctx = probe_ctx;
  obs::ContextScope probe_scope(causal, probe_ctx);
  for (std::size_t i = 0; i < state->topics.size(); ++i) {
    using Read = qplane::TreeSizes::Read;
    const auto read = tree_sizes_.read(
        state->topics[i], [state, i, anycast_smallest](const qplane::TreeSize& size) {
          state->sizes[i] = size;
          if (--state->remaining == 0) anycast_smallest();
        });
    if (auto* reg = owner_.engine().metrics()) {
      auto& fed = reg->fed();
      if (read == Read::Hit) {
        fed.counter<"qplane.cache_hits">().inc();
      } else if (tree_sizes_.caching()) {
        fed.counter<"qplane.cache_misses">().inc();
      }
      if (read != Read::Hit && tree_sizes_.batching()) {
        (read == Read::Coalesced ? fed.counter<"qplane.probes_coalesced">()
                                 : fed.counter<"qplane.probe_walks">())
            .inc();
      }
    }
  }
}

// --- commit / release ---------------------------------------------------------

void QueryInterface::commit(const QueryOutcome& outcome, util::SimTime lease) {
  for (const auto& c : outcome.nodes) {
    auto msg = std::make_unique<CommitMsg>();
    msg->query_id = outcome.query_id;
    msg->lease = lease;
    owner_.pastry().send_direct(c.node, std::move(msg), app_);
  }
}

void QueryInterface::renew(const QueryOutcome& outcome, util::SimTime lease) {
  for (const auto& c : outcome.nodes) {
    auto msg = std::make_unique<RenewMsg>();
    msg->query_id = outcome.query_id;
    msg->lease = lease;
    owner_.pastry().send_direct(c.node, std::move(msg), app_);
  }
}

void QueryInterface::release(const QueryOutcome& outcome) {
  send_releases(outcome.query_id, outcome.attempts, outcome.nodes);
}

// --- message handling ------------------------------------------------------------

void QueryInterface::deliver(const pastry::NodeId& /*key*/, pastry::AppMessage& msg,
                             int /*hops*/) {
  RBAY_WARN("rbay.query", "unexpected routed message " << msg.type_name());
}

void QueryInterface::receive(const pastry::NodeRef& from, pastry::AppMessage& msg) {
  if (auto* req = util::msg_as<SiteQueryRequest>(msg)) {
    // Gateway role: run the query inside our site and reply to the origin.
    const auto request_id = req->job.query_id.seq;
    const auto attempt_no = req->job.attempt;
    const auto origin = req->origin;
    run_site_query(std::move(req->job), [this, request_id, attempt_no, origin](SiteResult result) {
      auto reply = std::make_unique<SiteQueryReply>();
      reply->request_id = request_id;
      reply->attempt = attempt_no;
      reply->result = std::move(result);
      reply->result.site = owner_.site();
      owner_.pastry().send_direct(origin, std::move(reply), app_);
    });
    return;
  }
  if (auto* reply = util::msg_as<SiteQueryReply>(msg)) {
    auto it = pending_.find(reply->request_id);
    if (it == pending_.end() || it->second.outcome.attempts != reply->attempt) {
      // Late reply: its query finished or moved on to a later attempt.
      release_orphans({owner_.self().id, reply->request_id}, reply->attempt,
                      reply->result.candidates);
      return;
    }
    const auto& answered = it->second.outcome.sites_answered;
    if (std::find(answered.begin(), answered.end(), reply->result.site) != answered.end()) {
      // Duplicate reply for the current attempt: the first copy already
      // counted the site, decremented waiting_sites, and recorded these
      // same reservations — do NOT release them, just drop the copy.
      if (auto* reg = owner_.engine().metrics()) {
        reg->fed().counter<"query.dup_site_replies">().inc();
      }
      return;
    }
    site_done(reply->request_id, std::move(reply->result));
    return;
  }
  if (auto* commit = util::msg_as<CommitMsg>(msg)) {
    owner_.lock().commit(commit->query_id, owner_.engine().now(), commit->lease);
    return;
  }
  if (auto* renew = util::msg_as<RenewMsg>(msg)) {
    owner_.lock().renew(renew->query_id, owner_.engine().now(), renew->lease);
    return;
  }
  if (auto* release = util::msg_as<ReleaseMsg>(msg)) {
    owner_.lock().release(release->query_id, owner_.engine().now(), release->attempt);
    return;
  }
  RBAY_WARN("rbay.query", "unhandled direct message " << msg.type_name() << " from "
                                                      << from.id.to_hex());
}

}  // namespace rbay::core
