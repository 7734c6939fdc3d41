#pragma once

// Scribe wire messages (carried as Pastry AppMessages under app "scribe").

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pastry/messages.hpp"
#include "util/sim_time.hpp"

namespace rbay::scribe {

using TopicId = pastry::NodeId;
using pastry::NodeRef;

/// Composable aggregation functions (hierarchical computation property).
enum class AggregateKind { Count, Sum, Min, Max };

/// Mutable payload carried by an anycast as it walks the tree.  Concrete
/// payloads (e.g. the query plane's k-slot candidate buffer) subclass this;
/// member handlers mutate it in place.  `clone()` exists so the network can
/// duplicate an anycast or its result (`clone_msg()` below) with a payload
/// of its own.
struct AnycastPayload {
  AnycastPayload() = default;
  virtual ~AnycastPayload() = default;
  [[nodiscard]] util::MsgTag tag() const { return tag_; }
  [[nodiscard]] virtual std::size_t wire_size() const = 0;
  [[nodiscard]] virtual std::unique_ptr<AnycastPayload> clone() const = 0;

 protected:
  explicit AnycastPayload(util::MsgTag tag) : tag_(tag) {}

 private:
  util::MsgTag tag_ = nullptr;
};

template <class T>
using TaggedAnycastPayload = util::Tagged<T, AnycastPayload>;

/// Routed toward the TopicId; absorbed by the first tree node on the path.
struct JoinMsg final : pastry::TaggedMessage<JoinMsg> {
  TopicId topic;
  NodeRef child;
  /// Repair joins travel all the way to the rendezvous root instead of
  /// being absorbed at the first tree node: two orphans repairing
  /// concurrently must not adopt each other and form a detached cycle.
  bool repair = false;
  /// The child's attachment episode: a per-node counter bumped by every
  /// join it sends, echoed by the JoinAck and carried by its later Leave,
  /// so a stale Leave cannot undo a newer Join.
  std::uint32_t episode = 0;

  [[nodiscard]] std::size_t wire_size() const override { return 16 + 24 + 4; }
  [[nodiscard]] const char* type_name() const override { return "scribe.Join"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<JoinMsg>(*this);
  }
};

/// Parent→child acknowledgment carrying the parent's identity.
struct JoinAckMsg final : pastry::TaggedMessage<JoinAckMsg> {
  TopicId topic;
  std::uint32_t episode = 0;  // the acknowledged JoinMsg's episode

  [[nodiscard]] std::size_t wire_size() const override { return 16 + 4; }
  [[nodiscard]] const char* type_name() const override { return "scribe.JoinAck"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<JoinAckMsg>(*this);
  }
};

/// Child→parent: drop me (and prune upward if the parent empties).
struct LeaveMsg final : pastry::TaggedMessage<LeaveMsg> {
  TopicId topic;
  pastry::NodeId child;
  /// The attachment episode being ended: the parent ignores the Leave if
  /// it already holds the child under a newer one.
  std::uint32_t episode = 0;

  [[nodiscard]] std::size_t wire_size() const override { return 32 + 4; }
  [[nodiscard]] const char* type_name() const override { return "scribe.Leave"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<LeaveMsg>(*this);
  }
};

/// Routed to the rendezvous root, then disseminated down the tree.
struct MulticastMsg final : pastry::TaggedMessage<MulticastMsg> {
  TopicId topic;
  std::string data;

  [[nodiscard]] std::size_t wire_size() const override { return 16 + data.size(); }
  [[nodiscard]] const char* type_name() const override { return "scribe.Multicast"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<MulticastMsg>(*this);
  }
};

/// Distributed depth-first search over the tree.  `visited` and `stack`
/// travel with the message; `payload` accumulates the answer.
struct AnycastMsg final : pastry::TaggedMessage<AnycastMsg> {
  TopicId topic;
  std::uint64_t request_id = 0;
  NodeRef originator;
  int members_visited = 0;
  /// Times the DFS exhausted a detached fragment and re-routed toward the
  /// rendezvous root (tree-repair windows under churn).
  int reroutes = 0;
  std::vector<pastry::NodeId> visited;
  std::vector<NodeRef> stack;
  std::unique_ptr<AnycastPayload> payload;

  [[nodiscard]] std::size_t wire_size() const override {
    return 48 + visited.size() * 16 + stack.size() * 24 + (payload ? payload->wire_size() : 0);
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.Anycast"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    auto copy = std::make_unique<AnycastMsg>();
    copy->topic = topic;
    copy->request_id = request_id;
    copy->originator = originator;
    copy->members_visited = members_visited;
    copy->reroutes = reroutes;
    copy->visited = visited;
    copy->stack = stack;
    copy->payload = payload ? payload->clone() : nullptr;
    return copy;
  }
};

/// Final answer delivered directly to the anycast originator.
struct AnycastResultMsg final : pastry::TaggedMessage<AnycastResultMsg> {
  TopicId topic;
  std::uint64_t request_id = 0;
  bool satisfied = false;
  int members_visited = 0;
  std::unique_ptr<AnycastPayload> payload;

  [[nodiscard]] std::size_t wire_size() const override {
    return 32 + (payload ? payload->wire_size() : 0);
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.AnycastResult"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    auto copy = std::make_unique<AnycastResultMsg>();
    copy->topic = topic;
    copy->request_id = request_id;
    copy->satisfied = satisfied;
    copy->members_visited = members_visited;
    copy->payload = payload ? payload->clone() : nullptr;
    return copy;
  }
};

/// Child→parent periodic aggregation report (the paper's `aggregate`
/// extension, §II.B.3).
struct AggReportMsg final : pastry::TaggedMessage<AggReportMsg> {
  TopicId topic;
  pastry::NodeId child;
  double value = 0.0;

  [[nodiscard]] std::size_t wire_size() const override { return 40; }
  [[nodiscard]] const char* type_name() const override { return "scribe.AggReport"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<AggReportMsg>(*this);
  }
};

/// Routed probe asking the root for its aggregated view (e.g. tree size —
/// Step 1/2 of the paper's query protocol, Fig. 7).
struct SizeProbeMsg final : pastry::TaggedMessage<SizeProbeMsg> {
  TopicId topic;
  std::uint64_t request_id = 0;
  NodeRef originator;

  [[nodiscard]] std::size_t wire_size() const override { return 48; }
  [[nodiscard]] const char* type_name() const override { return "scribe.SizeProbe"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<SizeProbeMsg>(*this);
  }
};

/// A root's answer to a size probe.  `stale` marks a degraded read: a
/// freshly promoted root serving the last replicated snapshot, `age`
/// sim-time old.  `epoch` is the root's replication epoch — it never
/// moves backwards across a failover.
struct SizeInfo {
  double value = 0.0;
  std::uint64_t epoch = 0;
  bool stale = false;
  util::SimTime age = util::SimTime::zero();
  /// Served by a non-root member of the topic's root set (always a
  /// staleness-bounded degraded read).
  bool from_root_set = false;
};

struct SizeReplyMsg final : pastry::TaggedMessage<SizeReplyMsg> {
  TopicId topic;
  std::uint64_t request_id = 0;
  SizeInfo info;
  /// Advertised root set (root first, then serving replica holders) so the
  /// originator can fan later probes directly across the set.
  std::vector<NodeRef> root_set;

  [[nodiscard]] std::size_t wire_size() const override {
    return 50 + root_set.size() * 24;
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.SizeReply"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<SizeReplyMsg>(*this);
  }
};

/// Rendezvous state a warm standby needs to take over a tree on root
/// failure — the children/subscriber set and the latest aggregate
/// snapshot, stamped with a monotone epoch.  Shipped in a RootReplicaMsg
/// and held by the receiver.
struct ReplicaState {
  std::uint64_t epoch = 0;
  AggregateKind agg_kind = AggregateKind::Count;
  double value = 0.0;
  util::SimTime snapshot_time = util::SimTime::zero();
  /// Stamped by the receiver; not on the wire.
  util::SimTime received_at = util::SimTime::zero();
  std::vector<NodeRef> children;
  /// Root-set rotation (`root_set` > 0): this holder is a *serving*
  /// member of the topic's root set — it may answer size probes and
  /// accept anycast entries from its replicated snapshot while it is
  /// fresh, spreading the rendezvous root's read load across the set.
  bool serve = false;
  /// Roster of the topic's root set (root first, then the serving
  /// holders), re-advertised by every member so originators can fan
  /// probes directly across the set.
  std::vector<NodeRef> root_set;
};

/// Root → leaf-set neighbour: the rendezvous state, sent when it changed
/// or its refresh is due.
struct RootReplicaMsg final : pastry::TaggedMessage<RootReplicaMsg> {
  TopicId topic;
  ReplicaState replica;

  [[nodiscard]] std::size_t wire_size() const override {
    return 48 + replica.children.size() * 24 + replica.root_set.size() * 24;
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.RootReplica"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<RootReplicaMsg>(*this);
  }
};

/// Overloaded parent → delegate (leaf-set pick or lightest child): adopt
/// these children of mine for `topic` (D3-Tree style weight balancing).
/// Sent when the parent's fan-in exceeds the configured cap.
struct DelegateMsg final : pastry::TaggedMessage<DelegateMsg> {
  TopicId topic;
  AggregateKind agg_kind = AggregateKind::Count;
  /// Per-parent split episode: acks/nacks echo it, and the parent ignores
  /// answers from any episode but the pending one — duplicated or stale
  /// DelegateAcks cannot double-apply a delegation.
  std::uint64_t episode = 0;
  std::vector<NodeRef> children;

  [[nodiscard]] std::size_t wire_size() const override {
    return 17 + children.size() * 24;
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.Delegate"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<DelegateMsg>(*this);
  }
};

/// Delegate → overloaded parent: adopted these children (the parent drops
/// them and links the delegate as its single replacement child).
struct DelegateAckMsg final : pastry::TaggedMessage<DelegateAckMsg> {
  TopicId topic;
  std::uint64_t episode = 0;  // echoed from the DelegateMsg
  std::vector<pastry::NodeId> accepted;

  [[nodiscard]] std::size_t wire_size() const override {
    return 16 + accepted.size() * 16;
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.DelegateAck"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<DelegateAckMsg>(*this);
  }
};

/// Delegate → overloaded parent: cannot adopt (it already has conflicting
/// tree state for the topic); the parent retries with another candidate.
struct DelegateNackMsg final : pastry::TaggedMessage<DelegateNackMsg> {
  TopicId topic;
  std::uint64_t episode = 0;  // echoed from the DelegateMsg

  [[nodiscard]] std::size_t wire_size() const override { return 16; }
  [[nodiscard]] const char* type_name() const override { return "scribe.DelegateNack"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<DelegateNackMsg>(*this);
  }
};

/// Delegate → adopted child: switch your parent pointer from `old_parent`
/// to me.  A child whose parent is no longer `old_parent` declines by
/// sending the delegate a Leave, so stale delegations cannot corrupt the
/// tree.
struct ReparentMsg final : pastry::TaggedMessage<ReparentMsg> {
  TopicId topic;
  pastry::NodeId old_parent;

  [[nodiscard]] std::size_t wire_size() const override { return 32; }
  [[nodiscard]] const char* type_name() const override { return "scribe.Reparent"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<ReparentMsg>(*this);
  }
};

/// Parent→child liveness beacon for tree repair.
struct HeartbeatMsg final : pastry::TaggedMessage<HeartbeatMsg> {
  TopicId topic;

  [[nodiscard]] std::size_t wire_size() const override { return 16; }
  [[nodiscard]] const char* type_name() const override { return "scribe.Heartbeat"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<HeartbeatMsg>(*this);
  }
};

/// Child→parent liveness response; lets parents prune dead children (and
/// stop counting their stale aggregate reports).  Once the child has
/// reported to this parent it also carries the value last reported, so a
/// lost or reordered AggReportMsg is repaired within one heartbeat.
struct HeartbeatAckMsg final : pastry::TaggedMessage<HeartbeatAckMsg> {
  TopicId topic;
  std::optional<double> report;

  [[nodiscard]] std::size_t wire_size() const override { return report ? 24 : 16; }
  [[nodiscard]] const char* type_name() const override { return "scribe.HeartbeatAck"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<HeartbeatAckMsg>(*this);
  }
};

}  // namespace rbay::scribe
