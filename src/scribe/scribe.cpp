#include "scribe/scribe.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <span>

#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/msg_tag.hpp"

namespace rbay::scribe {

namespace {

/// Every tree is site-scoped: all routing uses the site state.
constexpr auto kScope = pastry::Scope::Site;
/// Missed-beat multiple after which a child declares its parent dead.
constexpr int kHeartbeatMisses = 3;
/// Leaf-set neighbours each tree root replicates rendezvous state to.
constexpr int kRootReplicas = 2;
/// Rounds between unconditional refreshes of an unchanged root replica
/// (capped by half the staleness bound, see refresh_interval).
constexpr std::int64_t kRefreshRounds = 8;

/// Federation scope of the engine-attached registry, or nullptr when
/// observability is off.
obs::Scope* fed_metrics(pastry::PastryNode& node) {
  auto* registry = node.network().engine().metrics();
  return registry == nullptr ? nullptr : &registry->fed();
}

/// Causal log of the engine-attached registry, or nullptr when
/// observability is off.
obs::CausalLog* causal_log(pastry::PastryNode& node) {
  auto* registry = node.network().engine().metrics();
  return registry == nullptr ? nullptr : &registry->causal();
}

/// Folds `v` into the running digest `h` (splitmix64 finaliser).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

std::uint64_t mix_id(std::uint64_t h, const pastry::NodeId& id) {
  return mix(mix(h, id.hi()), id.lo());
}

/// Calls `visit` on `leaves` in straddle order, cw[0], ccw[0], cw[1],
/// ccw[1], ..., until it returns true.  Picks taken in this order sit on
/// both sides of the owner on the id ring, so whichever neighbour
/// inherits a TreeId is among the first.
template <class Visit>
void straddle(const pastry::LeafSet& leaves, Visit visit) {
  const auto cw = leaves.clockwise();
  const auto ccw = leaves.counter_clockwise();
  for (std::size_t i = 0; i < std::max(cw.size(), ccw.size()); ++i) {
    if (i < cw.size() && visit(cw[i])) return;
    if (i < ccw.size() && visit(ccw[i])) return;
  }
}

/// Where a root sends its replicas: the first distinct leaf-set members
/// other than the root, in straddle order.
struct ReplicaPicks {
  std::array<NodeRef, 2 * pastry::kLeafHalfSize> refs{};
  std::size_t count = 0;

  [[nodiscard]] std::span<const NodeRef> view() const { return {refs.data(), count}; }
};

ReplicaPicks replica_picks(const pastry::LeafSet& leaves, const pastry::NodeId& self,
                           std::size_t wanted) {
  ReplicaPicks picks;
  straddle(leaves, [&](const NodeRef& ref) {
    const auto taken = picks.view();
    if (ref.id != self && std::none_of(taken.begin(), taken.end(),
                                       [&](const NodeRef& p) { return p.id == ref.id; })) {
      picks.refs[picks.count++] = ref;
    }
    return picks.count >= wanted;
  });
  return picks;
}

double identity(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::Count:
    case AggregateKind::Sum: return 0.0;
    case AggregateKind::Min: return std::numeric_limits<double>::infinity();
    case AggregateKind::Max: return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}
}  // namespace

double combine(AggregateKind kind, double a, double b) {
  switch (kind) {
    case AggregateKind::Count:
    case AggregateKind::Sum: return a + b;
    case AggregateKind::Min: return std::min(a, b);
    case AggregateKind::Max: return std::max(a, b);
  }
  return a;
}

Scribe::Scribe(pastry::PastryNode& node, ScribeConfig config)
    : node_(node), app_(node.register_app(kAppName, this)), config_(config) {
  auto& engine = node_.network().engine();
  round_origin_ = engine.now();
  if (config_.heartbeat_interval > util::SimTime::zero()) {
    beat_timer_ = engine.schedule_periodic(config_.heartbeat_interval, [this]() {
      heartbeat_round();
      check_parents();
    });
  }
}

Scribe::~Scribe() {
  grid_timer_.cancel();
  refresh_timer_.cancel();
  beat_timer_.cancel();
  promote_timer_.cancel();
  for (auto& [id, waiter] : anycast_waiters_) waiter.deadline.cancel();
  for (auto& [id, waiter] : size_waiters_) waiter.deadline.cancel();
}

Scribe::TopicState& Scribe::topic_state(const TopicId& topic) {
  auto [it, inserted] = topics_.try_emplace(topic);
  if (inserted) {
    if (auto r = retired_epochs_.find(topic); r != retired_epochs_.end()) {
      it->second.epoch = r->second;
      retired_epochs_.erase(r);
    }
  }
  return it->second;
}

const Scribe::TopicState* Scribe::find_topic(const TopicId& topic) const {
  auto it = topics_.find(topic);
  return it == topics_.end() ? nullptr : &it->second;
}

Scribe::TopicState* Scribe::find_topic(const TopicId& topic) {
  auto it = topics_.find(topic);
  return it == topics_.end() ? nullptr : &it->second;
}

bool Scribe::subscribed(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st != nullptr && st->member;
}

std::vector<TopicId> Scribe::known_topics() const {
  std::vector<TopicId> topics;
  topics.reserve(topics_.size());
  for (const auto& [topic, st] : topics_) topics.push_back(topic);
  return topics;
}

void Scribe::add_child(const TopicId& topic, TopicState& st, const NodeRef& child,
                       std::uint32_t episode) {
  const auto now = node_.network().engine().now();
  for (auto& c : st.children) {
    if (c.ref.id == child.id) {
      c.last_seen = now;
      c.episode = std::max(c.episode, episode);
      return;
    }
  }
  st.children.push_back(ChildState{child, 0.0, now, false, episode});
  touch();
  maybe_split(topic, st);
}

void Scribe::send_join(const TopicId& topic, TopicState& st, bool repair) {
  st.episode = next_episode_++;
  auto join = std::make_unique<JoinMsg>();
  join->topic = topic;
  join->child = node_.self();
  join->repair = repair;
  join->episode = st.episode;
  node_.route(topic, std::move(join), app_, kScope);
}

void Scribe::erase_topic(const TopicId& topic) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) return;
  if (it->second.epoch > 0) retired_epochs_[topic] = it->second.epoch;
  std::erase_if(join_callbacks_, [&](const auto& entry) { return entry.first == topic; });
  topics_.erase(it);
}

void Scribe::fire_joined(const TopicId& topic) {
  auto it = std::find_if(join_callbacks_.begin(), join_callbacks_.end(),
                         [&](const auto& entry) { return entry.first == topic; });
  if (it == join_callbacks_.end()) return;
  auto cb = std::move(it->second);
  join_callbacks_.erase(it);
  cb();
}

void Scribe::send_leave(const NodeRef& to, const TopicId& topic, std::uint32_t episode) {
  auto leave = std::make_unique<LeaveMsg>();
  leave->topic = topic;
  leave->child = node_.self().id;
  leave->episode = episode;
  node_.send_direct(to, std::move(leave), app_);
}

void Scribe::subscribe(const TopicId& topic, TopicMember* member,
                       std::function<void()> on_joined) {
  RBAY_REQUIRE(member != nullptr, "Scribe::subscribe: member handler required");
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.subscribes">().inc();
  auto& st = topic_state(topic);
  st.handler = member;
  touch();
  if (st.member || st.parent || st.root) {
    // Already attached (as member or forwarder); upgrading to member needs
    // no protocol traffic.
    st.member = true;
    if (on_joined) on_joined();
    return;
  }
  st.member = true;
  std::erase_if(join_callbacks_, [&](const auto& entry) { return entry.first == topic; });
  if (on_joined) join_callbacks_.emplace_back(topic, std::move(on_joined));
  send_join(topic, st, /*repair=*/false);
}

void Scribe::unsubscribe(const TopicId& topic) {
  auto* st = find_topic(topic);
  if (st == nullptr || !st->member) return;
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.unsubscribes">().inc();
  st->member = false;
  st->handler = nullptr;
  touch();
  maybe_prune(topic);
}

void Scribe::maybe_prune(const TopicId& topic) {
  auto* st = find_topic(topic);
  if (st == nullptr) return;
  if (st->member || !st->children.empty()) return;
  // A freshly promoted root may be a pure forwarder until its adopted
  // children rejoin; keep it alive through the degraded window so the
  // replicated aggregate stays servable.
  if (st->degraded &&
      node_.network().engine().now() - st->stale_at <= config_.max_staleness) {
    return;
  }
  if (st->parent) send_leave(*st->parent, topic, st->episode);
  erase_topic(topic);
}

// --- join handling ----------------------------------------------------------

bool Scribe::forward(const pastry::NodeId& /*key*/, pastry::AppMessage& msg,
                     const NodeRef& /*next_hop*/) {
  if (auto* join = util::msg_as<JoinMsg>(msg)) {
    if (join->child.id == node_.self().id) return true;  // our own fresh join
    if (join->repair) return true;  // repair joins attach only at the root
    handle_join(*join, /*at_root=*/false);
    auto* st = find_topic(join->topic);
    if (st != nullptr && (st->parent || st->root || st->member)) {
      // Already attached upstream (or the root): absorb the join here.
      return false;
    }
    // Newly created forwarder: keep routing so we get attached ourselves,
    // under an episode of our own.
    st->episode = next_episode_++;
    join->child = node_.self();
    join->episode = st->episode;
    return true;
  }
  if (auto* anycast = util::msg_as<AnycastMsg>(msg)) {
    const bool already_visited =
        std::find(anycast->visited.begin(), anycast->visited.end(), node_.self().id) !=
        anycast->visited.end();
    if (!already_visited && find_topic(anycast->topic) != nullptr) {
      // First tree node on the path: start the DFS here (anycast reaches a
      // member near the sender thanks to Pastry route convergence).
      // Already-visited nodes let rerouted anycasts pass toward the root.
      continue_anycast(std::make_unique<AnycastMsg>(std::move(*anycast)));
      return false;
    }
    if (!already_visited && anycast->reroutes == 0) {
      // Serving root-set holder with no tree state of its own: divert the
      // walk into one of the replicated child subtrees instead of letting
      // it converge on the rendezvous root.  Rerouted walks (repair
      // windows) pass through untouched.
      if (auto it = replicas_.find(anycast->topic);
          it != replicas_.end() && it->second.serve && !it->second.children.empty() &&
          config_.root_set > 0 && config_.max_staleness > util::SimTime::zero() &&
          node_.network().engine().now() - it->second.snapshot_time <=
              config_.max_staleness) {
        const auto& children = it->second.children;
        const auto& target = children[anycast->request_id % children.size()];
        if (target.id != node_.self().id && target.id != anycast->originator.id) {
          node_.send_direct(target, std::make_unique<AnycastMsg>(std::move(*anycast)), app_);
          return false;
        }
      }
    }
    return true;
  }
  if (auto* probe = util::msg_as<SizeProbeMsg>(msg)) {
    // Serving root-set holder on the routing path: answer the probe here
    // (staleness-bounded) and advertise the roster, so the originator
    // fans later probes directly across the set — the rendezvous root
    // never sees them.
    if (probe->originator.id != node_.self().id) {
      if (auto info = replica_answer(probe->topic)) {
        answer_probe_from_replica(*probe, *info);
        return false;
      }
    }
    return true;
  }
  return true;
}

void Scribe::handle_join(JoinMsg& join, bool at_root) {
  auto& st = topic_state(join.topic);
  if (join.child.id == node_.self().id) {
    // Our own join delivered back to us: we are the rendezvous root.
    st.root = true;
    touch();
    fire_joined(join.topic);
    return;
  }
  add_child(join.topic, st, join.child, join.episode);
  if (at_root && !st.parent) st.root = true;
  auto ack = std::make_unique<JoinAckMsg>();
  ack->topic = join.topic;
  ack->episode = join.episode;
  node_.send_direct(join.child, std::move(ack), app_);
}

// --- multicast ---------------------------------------------------------------

void Scribe::multicast(const TopicId& topic, std::string data) {
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.multicasts">().inc();
  auto msg = std::make_unique<MulticastMsg>();
  msg->topic = topic;
  msg->data = std::move(data);
  node_.route(topic, std::move(msg), app_, kScope);
}

void Scribe::handle_multicast_down(const TopicId& topic, const std::string& data) {
  auto* st = find_topic(topic);
  if (st == nullptr) return;
  // Snapshot the children before the local delivery: the handler may react by
  // unsubscribing, which can prune the topic and invalidate `st`.
  std::vector<pastry::NodeRef> children;
  children.reserve(st->children.size());
  for (const auto& child : st->children) children.push_back(child.ref);
  if (st->member && st->handler != nullptr) st->handler->on_multicast(topic, data);
  for (const auto& ref : children) {
    auto msg = std::make_unique<MulticastMsg>();
    msg->topic = topic;
    msg->data = data;
    node_.send_direct(ref, std::move(msg), app_);
  }
}

// --- anycast -----------------------------------------------------------------

void Scribe::anycast(const TopicId& topic, std::unique_ptr<AnycastPayload> payload,
                     AnycastCallback callback) {
  RBAY_REQUIRE(payload != nullptr, "Scribe::anycast: payload required");
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.anycasts">().inc();
  const auto id = next_request_id_++;
  auto& waiter = anycast_waiters_[id];
  waiter.callback = std::move(callback);
  if (config_.anycast_timeout > util::SimTime::zero()) {
    // The deadline is what makes a dead walk observable at all.
    waiter.deadline = node_.network().engine().schedule(
        config_.anycast_timeout, [this, id]() { on_anycast_deadline(id); });
  }
  auto msg = std::make_unique<AnycastMsg>();
  msg->topic = topic;
  msg->request_id = id;
  msg->originator = node_.self();
  msg->payload = std::move(payload);
  node_.route(topic, std::move(msg), app_, kScope);
}

void Scribe::continue_anycast(std::unique_ptr<AnycastMsg> msg) {
  // Once the anycast reaches the tree, every hop of the DFS walk belongs to
  // the MemberSearch phase: remap the ambient context so the causal log
  // attributes this walk's sends and visits correctly.
  auto* causal = causal_log(node_);
  obs::TraceContext walk_ctx = causal != nullptr ? causal->current() : obs::TraceContext{};
  if (walk_ctx.active() &&
      walk_ctx.phase == static_cast<std::uint8_t>(obs::Phase::kAnycast)) {
    walk_ctx.phase = static_cast<std::uint8_t>(obs::Phase::kMemberSearch);
  }
  obs::ContextScope walk_scope(causal, walk_ctx);

  auto* st = find_topic(msg->topic);
  if (st == nullptr) {
    // Entry node has no tree state: the topic has no members.
    finish_anycast(*msg, /*satisfied=*/false);
    return;
  }

  const auto& self_id = node_.self().id;
  const bool fresh =
      std::find(msg->visited.begin(), msg->visited.end(), self_id) == msg->visited.end();
  if (fresh) {
    msg->visited.push_back(self_id);
    msg->stack.push_back(node_.self());
    if (st->member && st->handler != nullptr) {
      ++msg->members_visited;
      if (auto* m = fed_metrics(node_)) m->counter<"scribe.anycast_visits">().inc();
      bool taken = false;
      {
        // The member's on_anycast (slot fill, reservation) runs as a child
        // of the recorded visit, so its causal points hang off this walk.
        obs::ContextScope visit_scope(
            causal,
            causal != nullptr
                ? causal->local(node_.network().site_of(node_.self().endpoint),
                                node_.self().endpoint, "scribe.member_visit",
                                node_.network().engine().now(),
                                static_cast<int>(obs::Phase::kMemberSearch))
                : obs::TraceContext{});
        taken = st->handler->on_anycast(msg->topic, *msg->payload);
      }
      if (taken) {
        finish_anycast(*msg, /*satisfied=*/true);
        return;
      }
    }
  }

  // Depth-first: nearest unvisited tree neighbor (children, then parent).
  std::optional<NodeRef> next;
  std::int64_t best_delay = 0;
  auto consider = [&](const NodeRef& r) {
    if (std::find(msg->visited.begin(), msg->visited.end(), r.id) != msg->visited.end()) return;
    const auto d =
        node_.network().expected_delay(node_.self().endpoint, r.endpoint).as_micros();
    if (!next || d < best_delay) {
      next = r;
      best_delay = d;
    }
  };
  for (const auto& child : st->children) consider(child.ref);
  if (st->parent) consider(*st->parent);

  if (next) {
    node_.send_direct(*next, std::move(msg), app_);
    return;
  }

  // Dead end: backtrack along the stack.
  if (!msg->stack.empty() && msg->stack.back().id == self_id) msg->stack.pop_back();
  if (!msg->stack.empty()) {
    const NodeRef back = msg->stack.back();
    node_.send_direct(back, std::move(msg), app_);
    return;
  }
  // Fragment exhausted.  During tree-repair windows the entry fragment may
  // be detached from the main tree; keep routing toward the rendezvous
  // root (visited nodes pass the message through instead of intercepting).
  const auto onward = node_.next_hop(msg->topic, kScope);
  if (onward && msg->reroutes < 4) {
    ++msg->reroutes;
    const auto topic = msg->topic;
    node_.route(topic, std::move(msg), app_, kScope);
    return;
  }
  finish_anycast(*msg, /*satisfied=*/false);
}

void Scribe::finish_anycast(AnycastMsg& msg, bool satisfied) {
  auto result = std::make_unique<AnycastResultMsg>();
  result->topic = msg.topic;
  result->request_id = msg.request_id;
  result->satisfied = satisfied;
  result->members_visited = msg.members_visited;
  result->payload = std::move(msg.payload);
  if (msg.originator.id == node_.self().id) {
    // Local shortcut: complete without a network round-trip.
    complete_anycast(result->request_id, result->topic, result->satisfied,
                     result->members_visited, *result->payload);
    return;
  }
  node_.send_direct(msg.originator, std::move(result), app_);
}

std::optional<Scribe::AnycastWaiter> Scribe::take_anycast_waiter(std::uint64_t request_id) {
  auto it = anycast_waiters_.find(request_id);
  if (it == anycast_waiters_.end()) return std::nullopt;
  auto waiter = std::move(it->second);
  anycast_waiters_.erase(it);
  waiter.deadline.cancel();
  return waiter;
}

void Scribe::complete_anycast(std::uint64_t request_id, const TopicId& topic, bool satisfied,
                              int members_visited, AnycastPayload& payload) {
  auto waiter = take_anycast_waiter(request_id);
  if (!waiter) {
    // The deadline already completed the waiter with a miss: this walk was
    // slow, not dead.  Don't drop it on the floor: a satisfied result may
    // carry member-side reservations taken during the walk, which the owner
    // must release or they leak until the hold expires.
    ++anycast_orphans_;
    if (auto* m = fed_metrics(node_)) m->counter<"scribe.anycast_orphans">().inc();
    if (orphan_handler_) orphan_handler_(topic, payload);
    return;
  }
  waiter->callback(satisfied, members_visited, &payload);
}

void Scribe::on_anycast_deadline(std::uint64_t request_id) {
  // The walk died on a dead link (a node crashed mid-DFS, a message was
  // lost) or is merely slow: complete with a miss so the caller's backoff
  // retry takes over.  The waiter is gone before the callback runs, so a
  // result that still comes home is an orphan, never a second completion.
  auto waiter = take_anycast_waiter(request_id);
  if (!waiter) return;
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.anycast_timeouts">().inc();
  waiter->callback(false, 0, nullptr);
}

// --- aggregation ---------------------------------------------------------------

void Scribe::set_aggregation(const TopicId& topic, AggregateKind kind) {
  topic_state(topic).agg_kind = kind;
  touch();
}

void Scribe::contribution_changed(const TopicId& topic) {
  if (subscribed(topic)) touch();
}

util::SimTime Scribe::refresh_interval() const {
  auto refresh = config_.aggregation_interval * kRefreshRounds;
  if (config_.max_staleness > util::SimTime::zero()) {
    refresh = std::min(refresh, util::SimTime::micros(config_.max_staleness.as_micros() / 2));
  }
  return std::max(refresh, config_.aggregation_interval);
}

std::optional<util::SimTime> Scribe::next_round() const {
  std::optional<util::SimTime> next;
  if (grid_timer_.active()) next = grid_at_;
  if (refresh_timer_.active() && (!next || refresh_at_ < *next)) next = refresh_at_;
  return next;
}

util::SimTime Scribe::next_grid_after(util::SimTime t) const {
  const auto period = config_.aggregation_interval.as_micros();
  const auto since = std::max<std::int64_t>((t - round_origin_).as_micros(), 0);
  return round_origin_ + util::SimTime::micros((since / period + 1) * period);
}

void Scribe::touch() {
  if (config_.aggregation_interval <= util::SimTime::zero()) return;
  // An armed grid round is already at the next grid instant.
  if (grid_timer_.active()) return;
  grid_at_ = next_grid_after(node_.network().engine().now());
  arm_round(grid_timer_, grid_at_);
}

void Scribe::reattached(TopicState& st) {
  st.reported = false;
  touch();
}

bool Scribe::record_report(ChildState& child, double value) {
  if (child.has_report && child.last_report == value) return false;
  child.last_report = value;
  child.has_report = true;
  touch();
  return true;
}

void Scribe::arm_round(sim::Timer& slot, util::SimTime at) {
  auto& engine = node_.network().engine();
  // Background, so a sleeping tree never holds run() open; armed on the
  // calling context's shard (the node's own site shard, or control).
  slot = engine.schedule_background(at - engine.now(), [this, &slot]() {
    slot = sim::Timer{};  // reads active until dropped: let the round re-arm it
    aggregation_round();
  });
}

void Scribe::arm_next_round() {
  const auto now = node_.network().engine().now();
  const auto next = next_grid_after(now);
  const auto refresh = refresh_interval();
  std::optional<util::SimTime> wake;
  for (const auto& [topic, st] : topics_) {
    const bool over_cap = config_.fan_in_cap > 0 &&
                          st.children.size() > static_cast<std::size_t>(config_.fan_in_cap);
    if (st.degraded || over_cap) {
      touch();
      return;
    }
    // Only a replicating root has a deadline: reports are never refreshed.
    const bool replicating = st.root && (st.member || !st.children.empty());
    if (!replicating || !st.root_state) continue;
    // First grid instant at or after the deadline, never before `next`.
    const auto due = std::max(next, next_grid_after(st.root_state->refreshed_at + refresh -
                                                    util::SimTime::micros(1)));
    if (!wake || due < *wake) wake = due;
  }
  if (!wake) return;
  if (*wake == next) {
    touch();
    return;
  }
  // Refresh deadlines only move later (each send pushes one out, and a
  // new tree position sends at once), so an armed refresh timer is never
  // late; if it fires early the round finds nothing due and re-arms.
  if (refresh_timer_.active()) return;
  refresh_at_ = *wake;
  arm_round(refresh_timer_, refresh_at_);
}

double Scribe::subtree_value(const TopicId& topic, const TopicState& st) const {
  double acc = identity(st.agg_kind);
  if (st.member) {
    const double own =
        st.handler != nullptr ? st.handler->aggregate_contribution(topic) : 1.0;
    acc = combine(st.agg_kind, acc, own);
  }
  for (const auto& child : st.children) {
    if (child.has_report) acc = combine(st.agg_kind, acc, child.last_report);
  }
  return acc;
}

double Scribe::aggregate_value(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st == nullptr ? 0.0 : subtree_value(topic, *st);
}

void Scribe::aggregation_round() {
  const auto now = node_.network().engine().now();
  for (auto& [topic, st] : topics_) {
    // A promoted root exits the degraded window once every adopted child
    // has reported into the live view, or the snapshot aged past the
    // staleness bound (probes then fall back to the partial live view).
    if (st.degraded) {
      const bool all_reported =
          std::all_of(st.children.begin(), st.children.end(),
                      [](const ChildState& c) { return c.has_report; });
      if ((all_reported && (st.member || !st.children.empty())) ||
          now - st.stale_at > config_.max_staleness) {
        st.degraded = false;
      }
    }
    // Fan-in enforcement is retried from here: a delegation lost to a
    // crash (or a fully NACKed episode) is cleared after two rounds and
    // attempted again with a fresh candidate slate.
    if (config_.fan_in_cap > 0 &&
        st.children.size() > static_cast<std::size_t>(config_.fan_in_cap)) {
      const auto retry_after = config_.aggregation_interval * std::int64_t{2};
      if (st.split_pending && now - st.split_requested_at > retry_after) {
        st.split_pending = false;
        st.split_declined.clear();
      }
      maybe_split(topic, st);
    }
    if (!st.parent) continue;
    // Report only news: a new value or a new parent.  A lost report is
    // repaired by the heartbeat ack, which carries `reported_value`.
    const double value = subtree_value(topic, st);
    if (st.reported && value == st.reported_value) continue;
    st.reported = true;
    st.reported_value = value;
    if (auto* m = fed_metrics(node_)) m->counter<"scribe.agg_reports">().inc();
    auto report = std::make_unique<AggReportMsg>();
    report->topic = topic;
    report->child = node_.self().id;
    report->value = value;
    node_.send_direct(*st.parent, std::move(report), app_);
  }
  replicate_roots();
  arm_next_round();
}

void Scribe::replicate_roots() {
  // Root-set rotation needs at least `root_set` replicated holders.
  const auto wanted = static_cast<std::size_t>(std::max(kRootReplicas, config_.root_set));
  const auto now = node_.network().engine().now();
  const auto refresh = refresh_interval();
  // Picks depend only on the site leaf set: taken once per round.
  std::optional<ReplicaPicks> picks;
  for (auto& [topic, st] : topics_) {
    if (!st.root || (!st.member && st.children.empty())) continue;
    // While degraded, replicate the snapshot we are actually serving so a
    // chained failover inherits the same (value, age) view.
    const bool window = st.degraded && now - st.stale_at <= config_.max_staleness;

    if (!picks) picks = replica_picks(node_.site_leaf_set(), node_.self().id, wanted);
    const auto picked = picks->view();
    if (!st.root_state) st.root_state = std::make_unique<RootState>();
    auto& rs = *st.root_state;
    if (picked.empty()) {
      rs.refreshed_at = now;  // nobody to hold a copy: look again at the refresh
      continue;
    }

    // The first `root_set` picks become serving members: they may answer
    // probes and accept anycast entries from the replicated snapshot.
    // The roster (self first) is advertised in probe replies so
    // originators fan later probes directly across the set.
    const std::size_t serve_n =
        config_.root_set > 0
            ? std::min(picked.size(), static_cast<std::size_t>(config_.root_set))
            : 0;
    rs.serve_set.assign(picked.begin(), picked.begin() + static_cast<std::ptrdiff_t>(serve_n));

    // Replicate only news: what a holder would store changed (value,
    // children, degraded snapshot, or who holds a copy, which also fixes
    // the roster), or the refresh is due.  Outside a degraded window the
    // send time is not news, and the epoch never is.
    const double value = window ? st.stale_value : subtree_value(topic, st);
    std::uint64_t digest = mix(0, std::bit_cast<std::uint64_t>(value));
    digest = mix(digest, static_cast<std::uint64_t>(st.agg_kind));
    digest = mix(digest, window ? static_cast<std::uint64_t>(st.stale_at.as_micros()) + 1 : 0);
    digest = mix(digest, st.children.size());
    for (const auto& child : st.children) digest = mix_id(digest, child.ref.id);
    digest = mix(digest, picked.size());
    for (const auto& p : picked) digest = mix_id(digest, p.id);
    if (rs.sent && rs.digest == digest && now - rs.refreshed_at < refresh) continue;
    rs.refreshed_at = now;
    rs.sent = true;
    rs.digest = digest;

    RootReplicaMsg proto;
    proto.topic = topic;
    auto& rep = proto.replica;
    rep.epoch = ++st.epoch;
    rep.agg_kind = st.agg_kind;
    rep.value = value;
    rep.snapshot_time = window ? st.stale_at : now;
    rep.children.reserve(st.children.size());
    for (const auto& child : st.children) rep.children.push_back(child.ref);
    if (serve_n > 0) {
      rep.root_set.reserve(serve_n + 1);
      rep.root_set.push_back(node_.self());
      rep.root_set.insert(rep.root_set.end(), rs.serve_set.begin(), rs.serve_set.end());
    }
    for (std::size_t i = 0; i < picked.size(); ++i) {
      auto msg = std::make_unique<RootReplicaMsg>(proto);
      msg->replica.serve = i < serve_n;
      if (auto* m = fed_metrics(node_)) m->counter<"scribe.root_replications">().inc();
      node_.send_direct(picked[i], std::move(msg), app_);
    }
  }
}

void Scribe::handle_replica(RootReplicaMsg& msg) {
  auto& rep = replicas_[msg.topic];
  if (msg.replica.epoch < rep.epoch) return;  // late copy from an older round
  rep = std::move(msg.replica);
  rep.received_at = node_.network().engine().now();
}

void Scribe::neighbor_failed(const pastry::NodeId& /*id*/) {
  // A root may have lost a replica holder: let the next round re-pick.
  touch();
  if (replicas_.empty() || promote_pending_) return;
  // Deferred by one (same-instant) event: the leaf-set notification can
  // arrive mid-rejoin with a TopicState reference live upstack, and
  // promotion mutates topics_.
  promote_pending_ = true;
  promote_timer_ = node_.network().engine().schedule(util::SimTime::zero(), [this]() {
    promote_pending_ = false;
    promotion_check();
  });
}

void Scribe::promotion_check() {
  std::vector<std::pair<TopicId, ReplicaState>> to_promote;
  for (auto& [topic, rep] : replicas_) {
    const auto* st = find_topic(topic);
    if (st != nullptr && st->root) continue;  // already own the TreeId
    // Ownership test: with the dead root purged from routing state, a null
    // next hop means this node is now numerically closest to the TreeId.
    if (node_.next_hop(topic, kScope).has_value()) continue;
    to_promote.emplace_back(topic, rep);
  }
  for (auto& [topic, rep] : to_promote) {
    replicas_.erase(topic);
    promote_from_replica(topic, std::move(rep));
  }
}

void Scribe::promote_from_replica(const TopicId& topic, ReplicaState replica) {
  auto& st = topic_state(topic);
  st.root = true;
  st.parent.reset();
  st.agg_kind = replica.agg_kind;
  // Epoch carries over monotonically: probes crossing the failover never
  // see it regress.
  st.epoch = std::max(st.epoch, replica.epoch);
  st.degraded = true;
  st.stale_value = replica.value;
  st.stale_at = replica.snapshot_time;
  st.root_state.reset();
  touch();
  for (const auto& child : replica.children) {
    if (child.id == node_.self().id) continue;
    add_child(topic, st, child);
  }
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.root_failovers">().inc();
  if (auto* causal = causal_log(node_)) {
    causal->local(node_.network().site_of(node_.self().endpoint), node_.self().endpoint,
                  "root.failover", node_.network().engine().now());
  }
}

Scribe::SizeInfo Scribe::probe_answer(const TopicId& topic, TopicState& st) {
  SizeInfo info;
  info.epoch = st.epoch;
  if (st.degraded) {
    const auto age = node_.network().engine().now() - st.stale_at;
    if (age <= config_.max_staleness) {
      info.value = st.stale_value;
      info.stale = true;
      info.age = age;
      if (auto* m = fed_metrics(node_)) m->counter<"scribe.stale_reads">().inc();
      return info;
    }
    st.degraded = false;  // bound exceeded: serve the (partial) live view
  }
  info.value = subtree_value(topic, st);
  return info;
}

void Scribe::probe_size(const TopicId& topic, SizeCallback callback) {
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.size_probes">().inc();
  const auto id = next_request_id_++;
  auto& waiter = size_waiters_[id];
  waiter.callback = std::move(callback);
  waiter.topic = topic;
  if (config_.anycast_timeout > util::SimTime::zero()) {
    waiter.deadline = node_.network().engine().schedule(
        config_.anycast_timeout, [this, id]() { on_probe_deadline(id); });
  }
  // Root-set fan-out: with a fresh advertised roster, probe a member of
  // the root set directly (round-robin) instead of converging every probe
  // on the rendezvous root through the same last-hop forwarders.  A
  // member that can no longer serve routes the probe on to the root.
  if (config_.root_set > 0 && config_.max_staleness > util::SimTime::zero()) {
    auto it = root_sets_.find(topic);
    if (it != root_sets_.end()) {
      auto& entry = it->second;
      const auto now = node_.network().engine().now();
      if (!entry.members.empty() && now - entry.learned_at <= config_.max_staleness) {
        for (std::size_t i = 0; i < entry.members.size(); ++i) {
          const auto& target = entry.members[entry.next++ % entry.members.size()];
          if (target.id == node_.self().id) continue;
          auto probe = std::make_unique<SizeProbeMsg>();
          probe->topic = topic;
          probe->request_id = id;
          probe->originator = node_.self();
          if (auto* m = fed_metrics(node_)) m->counter<"scribe.rootset_probes">().inc();
          waiter.via_root_set = true;
          node_.send_direct(target, std::move(probe), app_);
          return;
        }
      } else {
        root_sets_.erase(it);  // expired roster
      }
    }
  }
  route_size_probe(topic, id);
}

void Scribe::route_size_probe(const TopicId& topic, std::uint64_t request_id) {
  auto probe = std::make_unique<SizeProbeMsg>();
  probe->topic = topic;
  probe->request_id = request_id;
  probe->originator = node_.self();
  node_.route(topic, std::move(probe), app_, kScope);
}

std::optional<Scribe::SizeInfo> Scribe::replica_answer(const TopicId& topic) {
  if (config_.root_set <= 0 || config_.max_staleness <= util::SimTime::zero()) {
    return std::nullopt;
  }
  auto it = replicas_.find(topic);
  if (it == replicas_.end() || !it->second.serve) return std::nullopt;
  const auto age = node_.network().engine().now() - it->second.snapshot_time;
  if (age > config_.max_staleness) return std::nullopt;
  SizeInfo info;
  info.value = it->second.value;
  info.epoch = it->second.epoch;
  info.stale = true;
  info.age = age;
  info.from_root_set = true;
  return info;
}

void Scribe::answer_probe_from_replica(const SizeProbeMsg& probe, const SizeInfo& info) {
  ++rotations_;
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.rotations">().inc();
  send_size_reply(probe, info);
}

void Scribe::send_size_reply(const SizeProbeMsg& probe, const SizeInfo& info) {
  auto reply = std::make_unique<SizeReplyMsg>();
  reply->topic = probe.topic;
  reply->request_id = probe.request_id;
  reply->info = info;
  // The root-set roster: a serving holder re-advertises the one it was
  // replicated; a root names itself first, then its serving holders.
  if (info.from_root_set) {
    if (auto it = replicas_.find(probe.topic); it != replicas_.end()) {
      reply->root_set = it->second.root_set;
    }
  } else if (config_.root_set > 0) {
    if (const auto* st = find_topic(probe.topic); st != nullptr && st->root) {
      reply->root_set.push_back(node_.self());
      if (st->root_state) {
        for (const auto& s : st->root_state->serve_set) reply->root_set.push_back(s);
      }
    }
  }
  node_.send_direct(probe.originator, std::move(reply), app_);
}

void Scribe::complete_size_waiter(std::uint64_t request_id, const SizeInfo& info) {
  auto it = size_waiters_.find(request_id);
  if (it == size_waiters_.end()) return;
  auto waiter = std::move(it->second);
  size_waiters_.erase(it);
  waiter.deadline.cancel();
  waiter.callback(&info);
}

void Scribe::learn_root_set(const TopicId& topic, const std::vector<NodeRef>& members,
                            std::uint64_t epoch) {
  if (config_.root_set <= 0 || members.empty()) return;
  auto& entry = root_sets_[topic];
  if (epoch < entry.epoch) return;  // never regress to an older roster
  entry.members = members;
  entry.epoch = epoch;
  entry.learned_at = node_.network().engine().now();
}

// --- hot-tree splitting (fan-in caps, D3-Tree style weight balancing) -------

void Scribe::maybe_split(const TopicId& topic, TopicState& st) {
  if (config_.fan_in_cap <= 0) return;
  const auto cap = static_cast<std::size_t>(config_.fan_in_cap);
  if (st.children.size() <= cap) return;
  if (st.split_pending) return;
  // A freshly promoted root is mid-repair: its adopted children have not
  // re-confirmed their parent pointers, so a delegation now would race the
  // rejoin storm.  The periodic retry picks it up after the window.
  if (st.degraded) return;

  const auto now = node_.network().engine().now();
  const auto is_child = [&](const pastry::NodeId& id) {
    return std::any_of(st.children.begin(), st.children.end(),
                       [&](const ChildState& c) { return c.ref.id == id; });
  };
  const auto declined = [&](const pastry::NodeId& id) {
    return std::find(st.split_declined.begin(), st.split_declined.end(), id) !=
           st.split_declined.end();
  };

  // Delegate choice: the first leaf-set member in straddle order, as for
  // replication, that is not ourselves, a current child, our parent, or
  // one of this episode's NACKers.
  std::optional<NodeRef> delegate;
  straddle(node_.site_leaf_set(), [&](const NodeRef& ref) {
    if (ref.id == node_.self().id || is_child(ref.id) || declined(ref.id)) return false;
    if (st.parent && st.parent->id == ref.id) return false;
    delegate = ref;
    return true;
  });
  // Fallback: the lightest current child.  A live child's parent is us, so
  // it always accepts — the cap is enforceable even on a sparse ring.
  bool delegate_is_child = false;
  if (!delegate) {
    const ChildState* best = nullptr;
    for (const auto& c : st.children) {
      if (declined(c.ref.id)) continue;
      if (best == nullptr || c.last_report < best->last_report ||
          (c.last_report == best->last_report && c.ref.id < best->ref.id)) {
        best = &c;
      }
    }
    if (best == nullptr) return;  // everyone NACKed: periodic retry re-opens
    delegate = best->ref;
    delegate_is_child = true;
  }

  // Move the lightest surplus children (weight = last aggregate report),
  // never the delegate itself.  Enough must move that the post-split
  // fan-in is back at the cap, counting the delegate link we keep/add.
  std::vector<const ChildState*> movable;
  movable.reserve(st.children.size());
  for (const auto& c : st.children) {
    if (c.ref.id != delegate->id) movable.push_back(&c);
  }
  std::sort(movable.begin(), movable.end(), [](const ChildState* a, const ChildState* b) {
    if (a->last_report != b->last_report) return a->last_report < b->last_report;
    return a->ref.id < b->ref.id;
  });
  const std::size_t need = st.children.size() - cap + (delegate_is_child ? 0 : 1);

  auto msg = std::make_unique<DelegateMsg>();
  msg->topic = topic;
  msg->agg_kind = st.agg_kind;
  msg->episode = ++st.split_episode;
  msg->children.reserve(need);
  for (std::size_t i = 0; i < need && i < movable.size(); ++i) {
    msg->children.push_back(movable[i]->ref);
  }
  st.split_pending = true;
  st.split_requested_at = now;
  ++splits_;
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.splits">().inc();
  node_.send_direct(*delegate, std::move(msg), app_);
}

void Scribe::handle_delegate(const NodeRef& from, DelegateMsg& msg) {
  auto* existing = find_topic(msg.topic);
  // Acceptable only when provably acyclic: we have no tree state for the
  // topic (we attach under the delegator), or the delegator is already our
  // parent.  Anything else — we are the root, or a child of someone else —
  // could fold an ancestor under its own descendant.
  const bool acceptable =
      existing == nullptr ||
      (!existing->root && existing->parent && existing->parent->id == from.id);
  if (!acceptable) {
    auto nack = std::make_unique<DelegateNackMsg>();
    nack->topic = msg.topic;
    nack->episode = msg.episode;
    node_.send_direct(from, std::move(nack), app_);
    return;
  }
  auto& st = topic_state(msg.topic);
  st.agg_kind = msg.agg_kind;
  if (!st.parent && !st.root) {
    st.parent = from;
    st.last_parent_beat = node_.network().engine().now();
    reattached(st);
  }
  auto ack = std::make_unique<DelegateAckMsg>();
  ack->topic = msg.topic;
  ack->episode = msg.episode;
  for (const auto& child : msg.children) {
    if (child.id == node_.self().id) continue;
    add_child(msg.topic, st, child);
    ack->accepted.push_back(child.id);
    auto reparent = std::make_unique<ReparentMsg>();
    reparent->topic = msg.topic;
    reparent->old_parent = from.id;
    node_.send_direct(child, std::move(reparent), app_);
  }
  node_.send_direct(from, std::move(ack), app_);
}

void Scribe::handle_delegate_ack(const NodeRef& from, const DelegateAckMsg& msg) {
  auto* st = find_topic(msg.topic);
  if (st == nullptr) return;
  if (!st->split_pending || msg.episode != st->split_episode) {
    // Duplicated on the wire (the first copy already applied and cleared
    // the pending flag) or an answer to a superseded episode: applying it
    // again would double-count the delegation and re-link the delegate.
    if (auto* m = fed_metrics(node_)) m->counter<"scribe.dup_suppressed">().inc();
    return;
  }
  st->split_pending = false;
  st->split_declined.clear();
  std::size_t moved = 0;
  for (const auto& id : msg.accepted) {
    moved += std::erase_if(st->children,
                           [&](const ChildState& c) { return c.ref.id == id; });
  }
  touch();
  delegations_ += moved;
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.delegations">().inc(moved);
  // Link the delegate as the surplus children's new upstream; if it is
  // still over the cap afterwards, add_child's trigger splits again.
  add_child(msg.topic, *st, from);
  maybe_split(msg.topic, *st);
}

void Scribe::handle_reparent(const NodeRef& from, const ReparentMsg& msg) {
  auto* st = find_topic(msg.topic);
  if (st != nullptr && !st->root && st->parent && st->parent->id == msg.old_parent) {
    st->parent = from;
    st->last_parent_beat = node_.network().engine().now();
    reattached(*st);
    return;
  }
  if (st != nullptr && !st->root && st->parent && st->parent->id == from.id) {
    // Duplicate of a reparent we already applied: the sender is our parent
    // now.  Declining with a Leave would detach us from the live tree.
    st->last_parent_beat = node_.network().engine().now();
    if (auto* m = fed_metrics(node_)) m->counter<"scribe.dup_suppressed">().inc();
    return;
  }
  // Stale delegation (we already re-attached elsewhere): decline so the
  // delegate drops the phantom child instead of double-counting us.
  send_leave(from, msg.topic, st != nullptr ? st->episode : 0);
}

void Scribe::on_probe_deadline(std::uint64_t request_id) {
  auto it = size_waiters_.find(request_id);
  if (it == size_waiters_.end()) return;
  auto& waiter = it->second;
  if (waiter.via_root_set) {
    // The direct probe died (roster member crashed between advertisements).
    // Drop the stale roster and retry once through routing — Pastry steers
    // around failed nodes, so the routed probe reaches a live root.
    waiter.via_root_set = false;
    root_sets_.erase(waiter.topic);
    if (config_.anycast_timeout > util::SimTime::zero()) {
      waiter.deadline = node_.network().engine().schedule(
          config_.anycast_timeout, [this, request_id]() { on_probe_deadline(request_id); });
    }
    if (auto* m = fed_metrics(node_)) m->counter<"scribe.rootset_probe_retries">().inc();
    route_size_probe(waiter.topic, request_id);
    return;
  }
  auto cb = std::move(waiter.callback);
  size_waiters_.erase(it);
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.size_probe_timeouts">().inc();
  cb(nullptr);
}

// --- repair ---------------------------------------------------------------------

void Scribe::heartbeat_round() {
  const auto now = node_.network().engine().now();
  const auto limit =
      config_.heartbeat_interval * static_cast<std::int64_t>(kHeartbeatMisses + 1);
  std::vector<TopicId> emptied;
  for (auto& [topic, st] : topics_) {
    // Prune children that stopped acking: they died or re-attached
    // elsewhere; keeping them would poison multicast and the aggregate.
    // `last_seen` is stamped at attach, so the same miss budget covers a
    // child that never acked at all (JoinAck or first report lost) —
    // including one attached at virtual time zero, whose stamp is 0.
    if (std::erase_if(st.children,
                      [&](const ChildState& c) { return now - c.last_seen > limit; }) > 0) {
      touch();
    }
    if (!st.member && st.children.empty()) emptied.push_back(topic);
    for (const auto& child : st.children) {
      if (auto* m = fed_metrics(node_)) m->counter<"scribe.heartbeats">().inc();
      auto beat = std::make_unique<HeartbeatMsg>();
      beat->topic = topic;
      node_.send_direct(child.ref, std::move(beat), app_);
    }
  }
  for (const auto& topic : emptied) maybe_prune(topic);
  // Replicas stop refreshing when their root died (promotion consumes
  // them) or when this node fell out of the root's leaf set; either way
  // a copy several staleness windows old is garbage.  With staleness
  // disabled (zero) the retention window would also be zero and every
  // replica would be erased each round, silently breaking failover
  // promotion — keep copies indefinitely in that case.
  if (config_.max_staleness > util::SimTime::zero()) {
    std::erase_if(replicas_, [&](const auto& entry) {
      return now - entry.second.received_at > config_.max_staleness * std::int64_t{4};
    });
  }
}

void Scribe::check_parents() {
  const auto now = node_.network().engine().now();
  const auto limit =
      config_.heartbeat_interval * static_cast<std::int64_t>(kHeartbeatMisses);
  std::vector<TopicId> to_rejoin;
  for (auto& [topic, st] : topics_) {
    if (!st.parent) {
      if (st.root) {
        // Split-brain guard: a node that believes it is the rendezvous
        // root must verify it still is.  A recovered ex-root (or a root
        // beaten by a newly joined closer node) re-attaches, bringing its
        // subtree.
        if (node_.next_hop(topic, kScope).has_value()) {
          st.root = false;
          to_rejoin.push_back(topic);
        }
        continue;
      }
      // Disconnected non-root state (lost JOIN, recovery from downtime):
      // keep retrying the join, throttled to the repair window.
      if ((st.member || !st.children.empty()) &&
          (st.last_parent_beat == util::SimTime::zero() ||
           now - st.last_parent_beat > limit)) {
        to_rejoin.push_back(topic);
      }
      continue;
    }
    if (st.last_parent_beat == util::SimTime::zero()) {
      st.last_parent_beat = now;  // grace period from repair activation
      continue;
    }
    if (now - st.last_parent_beat > limit) to_rejoin.push_back(topic);
  }
  for (const auto& topic : to_rejoin) rejoin(topic);
}

void Scribe::rejoin(const TopicId& topic) {
  auto* st = find_topic(topic);
  if (st == nullptr) return;
  // Scribe-level silence never evicts a Pastry neighbour: a parent that
  // stopped beating may be alive and merely no longer hold us as a child.
  // A dead node is forgotten by Pastry's own failure path.
  st->parent.reset();
  st->reported = false;
  st->root_state.reset();
  // Marks the join attempt time: if no JoinAck resets this, check_parents
  // retries after the repair window.
  st->last_parent_beat = node_.network().engine().now();
  if (!st->member && st->children.empty()) {
    erase_topic(topic);
    return;
  }
  if (auto* m = fed_metrics(node_)) m->counter<"scribe.rejoins">().inc();
  send_join(topic, *st, /*repair=*/true);
}

// --- Pastry callbacks -------------------------------------------------------------

void Scribe::deliver(const pastry::NodeId& key, pastry::AppMessage& msg, int /*hops*/) {
  if (auto* join = util::msg_as<JoinMsg>(msg)) {
    handle_join(*join, /*at_root=*/true);
    auto* st = find_topic(join->topic);
    if (st != nullptr && !st->parent) st->root = true;
    return;
  }
  if (auto* mc = util::msg_as<MulticastMsg>(msg)) {
    // Rendezvous root: disseminate down the tree.
    handle_multicast_down(mc->topic, mc->data);
    return;
  }
  if (auto* anycast = util::msg_as<AnycastMsg>(msg)) {
    continue_anycast(std::make_unique<AnycastMsg>(std::move(*anycast)));
    return;
  }
  if (auto* probe = util::msg_as<SizeProbeMsg>(msg)) {
    SizeInfo info;
    if (auto* st = find_topic(probe->topic)) info = probe_answer(probe->topic, *st);
    if (probe->originator.id == node_.self().id) {
      complete_size_waiter(probe->request_id, info);
      return;
    }
    send_size_reply(*probe, info);
    return;
  }
  RBAY_WARN("scribe", "unhandled delivered message " << msg.type_name() << " at key "
                                                     << key.to_hex());
}

void Scribe::receive(const NodeRef& from, pastry::AppMessage& msg) {
  if (auto* ack = util::msg_as<JoinAckMsg>(msg)) {
    auto* found = find_topic(ack->topic);
    if (found == nullptr || ack->episode != found->episode || found->root ||
        (found->parent && found->parent->id != from.id)) {
      // Stale or duplicated ack: the join it answers was abandoned (we left,
      // or re-joined since), we were promoted to root in the meantime, or a
      // later (re)join already attached us under a different parent.
      // Overwriting would detach us from the tree we actually live in; a
      // Leave for the acked episode drops the acker's phantom child.
      if (auto* m = fed_metrics(node_)) m->counter<"scribe.dup_suppressed">().inc();
      if (found == nullptr || !found->parent || found->parent->id != from.id) {
        send_leave(from, ack->topic, ack->episode);
      }
      return;
    }
    auto& st = *found;
    st.parent = from;
    st.root = false;
    st.last_parent_beat = node_.network().engine().now();
    reattached(st);
    fire_joined(ack->topic);
    return;
  }
  if (auto* leave = util::msg_as<LeaveMsg>(msg)) {
    if (auto* st = find_topic(leave->topic)) {
      const auto removed = std::erase_if(st->children, [&](const ChildState& c) {
        return c.ref.id == leave->child && c.episode <= leave->episode;
      });
      if (removed == 0) {
        // Reordered behind the child's newer Join (or duplicated): the
        // child is attached again, and dropping it would orphan it.
        if (auto* m = fed_metrics(node_)) m->counter<"scribe.dup_suppressed">().inc();
        return;
      }
      touch();
      maybe_prune(leave->topic);
    }
    return;
  }
  if (auto* mc = util::msg_as<MulticastMsg>(msg)) {
    handle_multicast_down(mc->topic, mc->data);
    return;
  }
  if (auto* anycast = util::msg_as<AnycastMsg>(msg)) {
    continue_anycast(std::make_unique<AnycastMsg>(std::move(*anycast)));
    return;
  }
  if (auto* result = util::msg_as<AnycastResultMsg>(msg)) {
    // A result landing after the deadline completed the waiter is an
    // orphan: complete_anycast counts it and hands the payload to the
    // orphan handler so member-side reservations it carries get released.
    complete_anycast(result->request_id, result->topic, result->satisfied,
                     result->members_visited, *result->payload);
    return;
  }
  if (auto* report = util::msg_as<AggReportMsg>(msg)) {
    if (auto* st = find_topic(report->topic)) {
      for (auto& child : st->children) {
        if (child.ref.id == report->child) {
          record_report(child, report->value);
          break;
        }
      }
    }
    return;
  }
  if (auto* beat = util::msg_as<HeartbeatMsg>(msg)) {
    if (auto* st = find_topic(beat->topic)) {
      if (st->parent && st->parent->id == from.id) {
        st->last_parent_beat = node_.network().engine().now();
        auto ack = std::make_unique<HeartbeatAckMsg>();
        ack->topic = beat->topic;
        if (st->reported) ack->report = st->reported_value;
        node_.send_direct(from, std::move(ack), app_);
      }
    }
    return;
  }
  if (auto* hback = util::msg_as<HeartbeatAckMsg>(msg)) {
    if (auto* st = find_topic(hback->topic)) {
      for (auto& child : st->children) {
        if (child.ref.id == from.id) {
          child.last_seen = node_.network().engine().now();
          // The child's last report, lost or reordered on the wire.
          if (hback->report && record_report(child, *hback->report)) {
            if (auto* m = fed_metrics(node_)) m->counter<"scribe.report_repairs">().inc();
          }
          break;
        }
      }
    }
    return;
  }
  if (auto* probe = util::msg_as<SizeProbeMsg>(msg)) {
    // Direct root-set probe (originator-side fan-out).  Answer as the
    // root or as a serving replica holder; otherwise route it on toward
    // the root, which answers the originator.
    if (auto* st = find_topic(probe->topic); st != nullptr && st->root) {
      send_size_reply(*probe, probe_answer(probe->topic, *st));
      return;
    }
    if (auto info = replica_answer(probe->topic)) {
      answer_probe_from_replica(*probe, *info);
      return;
    }
    node_.route(probe->topic, std::make_unique<SizeProbeMsg>(std::move(*probe)), app_, kScope);
    return;
  }
  if (auto* reply = util::msg_as<SizeReplyMsg>(msg)) {
    if (!reply->root_set.empty()) {
      learn_root_set(reply->topic, reply->root_set, reply->info.epoch);
    }
    complete_size_waiter(reply->request_id, reply->info);
    return;
  }
  if (auto* replica = util::msg_as<RootReplicaMsg>(msg)) {
    handle_replica(*replica);
    return;
  }
  if (auto* delegate = util::msg_as<DelegateMsg>(msg)) {
    handle_delegate(from, *delegate);
    return;
  }
  if (auto* dack = util::msg_as<DelegateAckMsg>(msg)) {
    handle_delegate_ack(from, *dack);
    return;
  }
  if (auto* dnack = util::msg_as<DelegateNackMsg>(msg)) {
    if (auto* st = find_topic(dnack->topic)) {
      if (!st->split_pending || dnack->episode != st->split_episode) {
        // Duplicated or superseded nack: acting on it would abort a later
        // episode's in-flight delegation (or retry one already resolved).
        if (auto* m = fed_metrics(node_)) m->counter<"scribe.dup_suppressed">().inc();
        return;
      }
      st->split_pending = false;
      st->split_declined.push_back(from.id);
      maybe_split(dnack->topic, *st);  // retry with the next candidate
    }
    return;
  }
  if (auto* reparent = util::msg_as<ReparentMsg>(msg)) {
    handle_reparent(from, *reparent);
    return;
  }
  RBAY_WARN("scribe", "unhandled direct message " << msg.type_name());
}

std::vector<NodeRef> Scribe::children_of(const TopicId& topic) const {
  std::vector<NodeRef> out;
  if (const auto* st = find_topic(topic)) {
    out.reserve(st->children.size());
    for (const auto& c : st->children) out.push_back(c.ref);
  }
  return out;
}

std::optional<NodeRef> Scribe::parent_of(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st == nullptr ? std::nullopt : st->parent;
}

bool Scribe::is_root_of(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st != nullptr && st->root;
}

std::uint64_t Scribe::root_epoch_of(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st == nullptr ? 0 : st->epoch;
}

bool Scribe::is_degraded(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st != nullptr && st->degraded;
}

const Scribe::ReplicaState* Scribe::replica_of(const TopicId& topic) const {
  auto it = replicas_.find(topic);
  return it == replicas_.end() ? nullptr : &it->second;
}

std::size_t Scribe::max_fan_in() const {
  std::size_t fan_in = 0;
  for (const auto& [topic, st] : topics_) {
    fan_in = std::max(fan_in, st.children.size());
  }
  return fan_in;
}

util::SimTime Scribe::max_replica_age(util::SimTime now) const {
  util::SimTime age = util::SimTime::zero();
  for (const auto& [topic, replica] : replicas_) {
    age = std::max(age, now - replica.received_at);
  }
  return age;
}

util::SimTime Scribe::max_heartbeat_lag(util::SimTime now) const {
  if (config_.heartbeat_interval <= util::SimTime::zero()) return util::SimTime::zero();
  util::SimTime lag = util::SimTime::zero();
  for (const auto& [topic, st] : topics_) {
    // Only members that have heard at least one beat: a freshly joined
    // child has nothing to lag behind yet.
    if (!st.member || !st.parent.has_value()) continue;
    if (st.last_parent_beat == util::SimTime::zero()) continue;
    lag = std::max(lag, now - st.last_parent_beat);
  }
  return lag;
}

}  // namespace rbay::scribe
