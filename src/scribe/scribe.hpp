#pragma once

// Scribe: application-level group communication over Pastry (§II.B.2-3).
//
// Every tree is site-scoped: a TopicId names one tree in each site that
// subscribes to it, and every route, next hop, replica pick and delegate
// pick uses the node's site routing state (Scope::Site).  Administrations
// stay isolated as in SDIMS; cross-site queries go through RBAY's site
// gateways, not through Scribe.
//
// Nodes sharing an attribute join the attribute's tree.  The union of the
// Pastry routes from members to the TreeId forms the spanning tree; interior
// nodes may be pure forwarders.  Supported operations:
//   * multicast — policy pushes from admins to all members (onDeliver);
//   * anycast  — distributed DFS that visits members until a handler says
//     the request is satisfied (query serving);
//   * aggregate — RBAY's extension: hierarchical roll-up of a composable
//     function (count/sum/min/max) to the root.
//
// Roll-up is change-driven.  Rounds sit on a per-node grid of
// `aggregation_interval`, but a node wakes for one only when a topic it
// carries changed (a child report with a new value, a join, leave or
// prune, a local subscribe/unsubscribe, a parent change, a degraded
// window, a pending fan-in split, or contribution_changed()), or when a
// root's replica refresh is due.  A round reports a subtree value upstream
// only if it differs from the last one sent to the current parent, and a
// root replicates its rendezvous state only if the snapshot changed.
// Reports are never re-sent blind: the heartbeat ack carries the value
// last reported, so with repair on a lost or reordered report is repaired
// within one heartbeat.  Only root replicas are re-sent unconditionally,
// once per refresh interval (min(8 x aggregation_interval,
// max_staleness / 2)), which bounds a promoted replica's age.  A settled
// federation therefore sends no reports, and only its roots wake.
//
// Tree repair: when enabled, parents heartbeat children; a child that
// misses beats re-joins through Pastry, converging on the new root.

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "pastry/node.hpp"
#include "scribe/messages.hpp"

namespace rbay::scribe {

/// Upper-layer hooks for one subscribed topic.  Implemented by the RBAY
/// core node; all callbacks run on the member's node.
class TopicMember {
 public:
  virtual ~TopicMember() = default;

  /// A multicast reached this member.
  virtual void on_multicast(const TopicId& topic, const std::string& data) = 0;

  /// An anycast is visiting this member.  Mutate the payload; return true
  /// if the request is now satisfied (stops the DFS).
  virtual bool on_anycast(const TopicId& topic, AnycastPayload& payload) = 0;

  /// Local contribution to the topic's aggregate (default: membership
  /// count, i.e. 1.0 — which makes the root's aggregate the tree size).
  /// A member whose contribution changes must call
  /// Scribe::contribution_changed: a node sleeps until something changes.
  virtual double aggregate_contribution(const TopicId& topic) {
    (void)topic;
    return 1.0;
  }
};

double combine(AggregateKind kind, double a, double b);

struct ScribeConfig {
  /// Grid of aggregation roll-up rounds (a node wakes on it only when a
  /// topic changed or a root's replica refresh is due); zero disables
  /// aggregation and root replication.
  util::SimTime aggregation_interval = util::SimTime::zero();
  /// Parent→child heartbeat period; zero disables repair, including the
  /// repair of a lost aggregation report (the ack carries the last one).
  util::SimTime heartbeat_interval = util::SimTime::zero();
  /// Longest a promoted root may serve a replicated aggregate snapshot as
  /// a degraded (stale-tagged) read before failing back to its live view.
  util::SimTime max_staleness = util::SimTime::seconds(5);
  /// Deadline for anycast walks and size probes; zero disables timeouts
  /// (an expired anycast completes with a miss, which the query layer
  /// retries after backoff).
  util::SimTime anycast_timeout = util::SimTime::zero();
  /// Hot-tree load balancing: maximum children a tree node carries before
  /// it delegates the surplus to a leaf-set pick (D3-Tree style weight
  /// balancing).  Zero disables splitting.
  int fan_in_cap = 0;
  /// Root-set rotation: number of serving replica holders a root keeps
  /// besides itself.  Serving holders answer size probes from their
  /// replicated snapshot (staleness-bounded) and accept anycast entries,
  /// spreading a hot root's read load.  Zero disables rotation.
  int root_set = 0;
};

class Scribe final : public pastry::PastryApp {
 public:
  explicit Scribe(pastry::PastryNode& node, ScribeConfig config = {});
  ~Scribe() override;

  Scribe(const Scribe&) = delete;
  Scribe& operator=(const Scribe&) = delete;

  /// Joins `topic` as a member.  `member` must outlive the subscription.
  /// `on_joined` (optional) fires when the JOIN is absorbed upstream (or
  /// immediately if this node is the topic root).
  void subscribe(const TopicId& topic, TopicMember* member,
                 std::function<void()> on_joined = nullptr);

  void unsubscribe(const TopicId& topic);

  [[nodiscard]] bool subscribed(const TopicId& topic) const;

  /// The topics this node holds state for, in the order the periodic
  /// rounds walk them.  Contract: sorted by TopicId — a pure function of
  /// the topic set, independent of subscription/teardown history — so
  /// per-round message order (and the jitter draws / seq tie-breaks that
  /// hang off it) is deterministic.
  [[nodiscard]] std::vector<TopicId> known_topics() const;

  /// Multicasts `data` to all members via the rendezvous root.
  void multicast(const TopicId& topic, std::string data);

  /// Starts an anycast DFS over the topic tree.  The callback fires on this
  /// node with the final payload (satisfied = a member consumed it), or
  /// with a null payload when the walk missed its deadline.
  using AnycastCallback =
      std::function<void(bool satisfied, int members_visited, AnycastPayload* payload)>;
  void anycast(const TopicId& topic, std::unique_ptr<AnycastPayload> payload,
               AnycastCallback callback);

  /// Sets the aggregate function for a topic this node participates in.
  void set_aggregation(const TopicId& topic, AggregateKind kind);

  /// The local member's aggregate_contribution for `topic` changed: the
  /// next round re-evaluates and reports it.
  void contribution_changed(const TopicId& topic);

  /// Longest a root lets an unchanged replica go unsent:
  /// min(8 x aggregation_interval, max_staleness / 2), at least one
  /// interval.  Reports have no refresh (the heartbeat ack repairs them).
  [[nodiscard]] util::SimTime refresh_interval() const;

  /// Sim-time of the pending round wake-up, or nullopt while the node
  /// sleeps with nothing changed and no replica refresh due
  /// (introspection).
  [[nodiscard]] std::optional<util::SimTime> next_round() const;

  /// This node's current aggregated view of its subtree (at the root: the
  /// whole tree).  Count aggregation yields tree size.
  [[nodiscard]] double aggregate_value(const TopicId& topic) const;

  using SizeInfo = scribe::SizeInfo;

  /// Asks the topic root for its aggregate (Fig. 7 steps 1-2).  The
  /// callback fires with the root's answer, or with null when the probe
  /// missed its deadline.
  using SizeCallback = std::function<void(const SizeInfo* info)>;
  void probe_size(const TopicId& topic, SizeCallback callback);

  /// Fires when an anycast result arrives for a waiter that already
  /// completed (a slow walk coming home after its deadline's miss).  The
  /// payload may carry member-side state — reservations taken during the
  /// walk — that the owner must reconcile; without a handler it is only
  /// counted.
  using OrphanHandler = std::function<void(const TopicId& topic, AnycastPayload& payload)>;
  void set_orphan_handler(OrphanHandler handler) { orphan_handler_ = std::move(handler); }
  [[nodiscard]] std::uint64_t anycast_orphans() const { return anycast_orphans_; }

  /// Children registered on this node for `topic` (tree introspection).
  [[nodiscard]] std::vector<NodeRef> children_of(const TopicId& topic) const;
  [[nodiscard]] std::optional<NodeRef> parent_of(const TopicId& topic) const;
  [[nodiscard]] bool is_root_of(const TopicId& topic) const;

  /// Failover introspection (invariant checkers, tests).
  [[nodiscard]] std::size_t anycast_waiter_count() const { return anycast_waiters_.size(); }
  [[nodiscard]] std::size_t size_waiter_count() const { return size_waiters_.size(); }
  [[nodiscard]] std::uint64_t root_epoch_of(const TopicId& topic) const;
  [[nodiscard]] bool is_degraded(const TopicId& topic) const;

  /// Hot-tree load-balancing introspection (scenario expects, tests).
  /// splits = overload events that initiated a delegation; delegations =
  /// children successfully re-parented to a delegate; rotations = size
  /// probes answered by a non-root root-set member on this node.
  [[nodiscard]] std::uint64_t split_count() const { return splits_; }
  [[nodiscard]] std::uint64_t delegation_count() const { return delegations_; }
  [[nodiscard]] std::uint64_t rotation_count() const { return rotations_; }

  /// Health introspection (rbay.health.* publication, docs/HEALTH.md).
  /// Largest child fan-in across every topic this node carries state for.
  [[nodiscard]] std::size_t max_fan_in() const;
  /// Age of the oldest root-state replica held on this node; zero without
  /// replicas.
  [[nodiscard]] util::SimTime max_replica_age(util::SimTime now) const;
  /// Longest time since a parent heartbeat, across subscribed topics with
  /// a parent that have seen at least one beat; zero when repair is off.
  [[nodiscard]] util::SimTime max_heartbeat_lag(util::SimTime now) const;

  /// Replicated rendezvous state held on behalf of a (possibly failed)
  /// tree root.
  using ReplicaState = scribe::ReplicaState;
  [[nodiscard]] const ReplicaState* replica_of(const TopicId& topic) const;

  // PastryApp interface -----------------------------------------------------
  void deliver(const pastry::NodeId& key, pastry::AppMessage& msg, int hops) override;
  bool forward(const pastry::NodeId& key, pastry::AppMessage& msg,
               const NodeRef& next_hop) override;
  void receive(const NodeRef& from, pastry::AppMessage& msg) override;
  void neighbor_failed(const pastry::NodeId& id) override;

  /// App name Scribe registers under.
  static constexpr const char* kAppName = "scribe";

 private:
  struct ChildState {
    NodeRef ref;
    double last_report = 0.0;
    util::SimTime last_seen = util::SimTime::zero();
    bool has_report = false;
    /// Newest attachment episode the child joined under (0 when adopted
    /// by delegation or promotion): only a Leave for this episode or a
    /// later one removes it.  Packs with `has_report`.
    std::uint32_t episode = 0;
  };

  /// Replication state a node keeps only while it is a root.
  struct RootState {
    /// With root_set > 0: the serving holders picked by the last
    /// replication pass (advertised, with self first, as the root set).
    std::vector<NodeRef> serve_set;
    /// Digest of the last replica sent and of who holds it (see
    /// replicate_roots): a round replicates only news.
    bool sent = false;
    std::uint64_t digest = 0;
    /// When this root last replicated (or found no holder): the refresh
    /// deadline runs from it.
    util::SimTime refreshed_at = util::SimTime::zero();
  };

  // Field order packs the flags and small enums into one tail word.
  struct TopicState {
    TopicMember* handler = nullptr;
    std::optional<NodeRef> parent;
    std::vector<ChildState> children;
    util::SimTime last_parent_beat = util::SimTime::zero();
    /// Replication epoch while root: bumped by every replica send, carried
    /// over (max) on promotion so probes never see it regress.
    std::uint64_t epoch = 0;
    /// Quiet roll-up: the value last reported to the current parent (see
    /// `reported`); heartbeat acks carry it so a lost report is repaired.
    double reported_value = 0.0;
    /// Promoted-root repair window: serve `stale_value` (snapshotted at
    /// `stale_at`) until the subtree reports afresh or staleness exceeds
    /// the configured bound.
    double stale_value = 0.0;
    util::SimTime stale_at = util::SimTime::zero();
    /// Timestamp of the in-flight fan-in split, so rounds can retry a
    /// delegation lost to a crash.
    util::SimTime split_requested_at = util::SimTime::zero();
    /// Monotone per-topic split episode, stamped into every DelegateMsg
    /// and echoed by acks/nacks: answers from any episode but the pending
    /// one (duplicated or reordered on the wire) are ignored.
    std::uint64_t split_episode = 0;
    /// Candidates that NACKed the current overload episode (skipped until
    /// the next periodic retry clears the list).
    std::vector<pastry::NodeId> split_declined;
    /// Non-null while root and replicating.
    std::unique_ptr<RootState> root_state;
    /// Episode of this node's latest Join for the topic (see JoinMsg).
    std::uint32_t episode = 0;
    AggregateKind agg_kind = AggregateKind::Count;
    bool member = false;
    bool root = false;
    /// A report was sent to the current parent: until one has, every
    /// round reports.
    bool reported = false;
    bool degraded = false;
    /// Fan-in split in flight: a DelegateMsg is out and unanswered.
    bool split_pending = false;
  };
  // One per topic a node carries: keep the record from growing back
  // unnoticed.
  static_assert(sizeof(TopicState) <= 176, "TopicState grew");

  struct AnycastWaiter {
    AnycastCallback callback;
    sim::Timer deadline;
  };

  struct SizeWaiter {
    SizeCallback callback;
    sim::Timer deadline;
    /// Kept so a direct probe that missed its deadline can retry through
    /// routing in place.
    TopicId topic;
    /// True while the probe is in flight on the direct root-set path: a
    /// deadline then drops the (possibly dead-member) roster and retries
    /// once via routing instead of reporting a miss.
    bool via_root_set = false;
  };

  /// Originator-side cache of a topic's advertised root set: later size
  /// probes are fanned directly (round-robin) across the set instead of
  /// all routing to the rendezvous root.
  struct RootSetEntry {
    std::vector<NodeRef> members;
    std::uint64_t epoch = 0;
    util::SimTime learned_at = util::SimTime::zero();
    std::size_t next = 0;
  };

  TopicState& topic_state(const TopicId& topic);
  [[nodiscard]] const TopicState* find_topic(const TopicId& topic) const;
  [[nodiscard]] TopicState* find_topic(const TopicId& topic);

  void add_child(const TopicId& topic, TopicState& st, const NodeRef& child,
                 std::uint32_t episode = 0);
  /// Routes a Join for `topic` under a fresh episode.
  void send_join(const TopicId& topic, TopicState& st, bool repair);
  void send_leave(const NodeRef& to, const TopicId& topic, std::uint32_t episode);
  /// Drops the topic's state, keeping its epoch for a rebuilt tree and
  /// forgetting any pending subscribe callback.
  void erase_topic(const TopicId& topic);
  /// Fires and forgets the pending subscribe callback for `topic`.
  void fire_joined(const TopicId& topic);
  void handle_join(JoinMsg& join, bool at_root);
  void handle_multicast_down(const TopicId& topic, const std::string& data);
  void continue_anycast(std::unique_ptr<AnycastMsg> msg);
  void finish_anycast(AnycastMsg& msg, bool satisfied);
  void maybe_prune(const TopicId& topic);
  /// Something a round reads changed: wake at the next grid instant.
  void touch();
  /// The parent changed (or is gone): the next round reports afresh.
  void reattached(TopicState& st);
  /// Records `value` as `child`'s last report: the only writer of
  /// ChildState::last_report, for AggReportMsg and for the value a
  /// HeartbeatAckMsg carries.  Returns whether the record changed (and
  /// then wakes the next round).
  bool record_report(ChildState& child, double value);
  [[nodiscard]] util::SimTime next_grid_after(util::SimTime t) const;
  /// Schedules a round at grid instant `at` into `slot`.
  void arm_round(sim::Timer& slot, util::SimTime at);
  /// After a round: wake at the next grid instant while a topic is in a
  /// degraded window or over its fan-in cap, else at the earliest root
  /// replica refresh deadline, else not at all.
  void arm_next_round();
  void aggregation_round();
  void heartbeat_round();
  void check_parents();
  void rejoin(const TopicId& topic);
  [[nodiscard]] double subtree_value(const TopicId& topic, const TopicState& st) const;
  void replicate_roots();
  void handle_replica(RootReplicaMsg& msg);
  void promotion_check();
  void promote_from_replica(const TopicId& topic, ReplicaState replica);
  void on_anycast_deadline(std::uint64_t request_id);
  void on_probe_deadline(std::uint64_t request_id);
  /// Removes and returns the waiter for `request_id` (cancelling its
  /// deadline), or nullopt if it already completed.  Every anycast
  /// completion path takes the waiter through here, which is what makes
  /// completion idempotent: the map entry is gone before any callback
  /// runs, so whichever of {result, deadline} fires second finds nothing
  /// (a result that does is handled as an orphan).
  [[nodiscard]] std::optional<AnycastWaiter> take_anycast_waiter(std::uint64_t request_id);
  void complete_anycast(std::uint64_t request_id, const TopicId& topic, bool satisfied,
                        int members_visited, AnycastPayload& payload);
  [[nodiscard]] SizeInfo probe_answer(const TopicId& topic, TopicState& st);
  void maybe_split(const TopicId& topic, TopicState& st);
  void handle_delegate(const NodeRef& from, DelegateMsg& msg);
  void handle_delegate_ack(const NodeRef& from, const DelegateAckMsg& msg);
  void handle_reparent(const NodeRef& from, const ReparentMsg& msg);
  /// Serving replica answer for a direct/intercepted size probe; nullopt
  /// when this node cannot serve (no fresh serving replica).
  [[nodiscard]] std::optional<SizeInfo> replica_answer(const TopicId& topic);
  void answer_probe_from_replica(const SizeProbeMsg& probe, const SizeInfo& info);
  /// Answers `probe` directly to its originator, advertising the root-set
  /// roster when this node serves one.  The only place a SizeReplyMsg is
  /// built.
  void send_size_reply(const SizeProbeMsg& probe, const SizeInfo& info);
  /// Removes the waiter for `request_id` (cancelling its deadline) and
  /// answers it; a no-op if it already completed.
  void complete_size_waiter(std::uint64_t request_id, const SizeInfo& info);
  void learn_root_set(const TopicId& topic, const std::vector<NodeRef>& members,
                      std::uint64_t epoch);
  void route_size_probe(const TopicId& topic, std::uint64_t request_id);

  pastry::PastryNode& node_;
  pastry::AppId app_;  // kAppName, interned
  ScribeConfig config_;
  /// Ordered by TopicId, NOT hashed: the periodic rounds (aggregation,
  /// heartbeats, parent checks, replica promotion) iterate these maps and
  /// send one message per entry, so iteration order decides per-message
  /// jitter draws and same-instant tie-breaks.  A hash map's order is a
  /// function of its insertion/erase history — two nodes with the same
  /// topic set but different subscription histories would schedule
  /// differently.  Sorted order is a pure function of the key set
  /// (pinned by scribe/determinism_test.cpp).
  std::map<TopicId, TopicState> topics_;
  /// Replication epochs of torn-down topics we were root of: a rebuilt
  /// tree resumes from here instead of restarting at 0, which would make
  /// successors (whose replicas never regress) reject every new snapshot.
  std::unordered_map<TopicId, std::uint64_t, util::U128Hash> retired_epochs_;
  std::map<TopicId, ReplicaState> replicas_;
  std::unordered_map<TopicId, RootSetEntry, util::U128Hash> root_sets_;
  std::unordered_map<std::uint64_t, AnycastWaiter> anycast_waiters_;
  std::unordered_map<std::uint64_t, SizeWaiter> size_waiters_;
  OrphanHandler orphan_handler_;
  std::uint64_t anycast_orphans_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t delegations_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t next_request_id_ = 1;
  /// Join episodes are node-wide, so they stay monotone across a topic's
  /// teardown and re-creation.
  std::uint32_t next_episode_ = 1;
  /// Subscribe callbacks waiting for their topic's JOIN to be absorbed;
  /// kept out of TopicState because almost no topic has one.
  std::vector<std::pair<TopicId, std::function<void()>>> join_callbacks_;
  /// Rounds are one-shot background timers on the grid that starts at
  /// `round_origin_` (construction time): `grid_timer_` at the next grid
  /// instant once something changed, `refresh_timer_` at the earliest
  /// refresh deadline.  Neither is ever moved, so no cancelled event
  /// lingers in the queue.
  sim::Timer grid_timer_;
  sim::Timer refresh_timer_;
  util::SimTime grid_at_ = util::SimTime::zero();
  util::SimTime refresh_at_ = util::SimTime::zero();
  util::SimTime round_origin_ = util::SimTime::zero();
  sim::Timer beat_timer_;
  sim::Timer promote_timer_;
  bool promote_pending_ = false;
};

}  // namespace rbay::scribe
