// Wire accounting of the protocol messages that carry a shared record.
// net.bytes_sent, the Fig. 11 bandwidth numbers and the ablations all sum
// wire_size(); each expected value below is the byte count the formula
// gives for the populated message, written out as a literal so a change
// to the formula (or to what it counts) fails here first.

#include <gtest/gtest.h>

#include <tuple>

#include "core/messages.hpp"
#include "scribe/messages.hpp"
#include "util/msg_tag.hpp"

namespace rbay {
namespace {

std::vector<query::Predicate> predicates() {
  return {{"GPU", query::CompareOp::Eq, store::AttributeValue{true}},
          {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}},
          {"instance", query::CompareOp::Eq, store::AttributeValue{std::string("c3.8xlarge")}}};
}

pastry::NodeRef ref(int i) {
  pastry::NodeRef r;
  r.endpoint = static_cast<net::EndpointId>(i);
  return r;
}

core::SiteJob job() {
  core::SiteJob j;
  j.query_id = {util::U128{0x0123456789abcdefULL, 0x42}, 7};
  j.attempt = 2;
  j.k = 9;
  j.get_payload = "password";
  j.predicates = predicates();
  j.group_by = "CPU_utilization";
  return j;
}

std::vector<pastry::NodeRef> refs(int n) {
  std::vector<pastry::NodeRef> out;
  for (int i = 0; i < n; ++i) out.push_back(ref(i));
  return out;
}

TEST(ProtocolWire, SiteQueryRequestCountsPayloadAndPredicates) {
  core::SiteQueryRequest req;
  req.origin = ref(1);
  req.job = job();
  EXPECT_EQ(req.wire_size(), 236u);
}

TEST(ProtocolWire, SiteQueryReplyCountsCandidates) {
  core::SiteQueryReply reply;
  reply.request_id = 7;
  reply.attempt = 2;
  reply.result.site = 3;
  reply.result.visited = 11;
  reply.result.count = 4;
  reply.result.stale = true;
  reply.result.cached = true;
  for (int i = 0; i < 3; ++i) reply.result.candidates.push_back(core::Candidate{ref(i), 0.5, true});
  EXPECT_EQ(reply.wire_size(), 137u);
}

TEST(ProtocolWire, CandidatePayloadCountsJobAndFoundSlots) {
  core::CandidatePayload payload;
  payload.job = job();
  for (int i = 0; i < 2; ++i) payload.found.push_back(core::Candidate{ref(i), 0.5, true});
  EXPECT_EQ(payload.wire_size(), 268u);
}

// The query id travels at its fixed width, 16 B origin + 8 B seq, not as
// its text form.
TEST(ProtocolWire, CommitRenewReleaseCountTheFixedWidthQueryId) {
  core::CommitMsg commit;
  commit.query_id = job().query_id;
  commit.lease = util::SimTime::seconds(10);
  EXPECT_EQ(commit.wire_size(), 48u);
  core::RenewMsg renew;
  renew.query_id = job().query_id;
  renew.lease = util::SimTime::seconds(10);
  EXPECT_EQ(renew.wire_size(), 48u);
  core::ReleaseMsg release;
  release.query_id = job().query_id;
  release.attempt = 2;
  EXPECT_EQ(release.wire_size(), 44u);
}

scribe::SizeReplyMsg size_reply() {
  scribe::SizeReplyMsg reply;
  reply.request_id = 5;
  reply.info.value = 42;
  reply.info.epoch = 3;
  reply.info.stale = true;
  reply.info.age = util::SimTime::millis(120);
  reply.info.from_root_set = true;
  reply.root_set = refs(3);
  return reply;
}

scribe::RootReplicaMsg root_replica() {
  scribe::RootReplicaMsg msg;
  msg.replica.epoch = 4;
  msg.replica.agg_kind = scribe::AggregateKind::Sum;
  msg.replica.value = 17;
  msg.replica.snapshot_time = util::SimTime::millis(750);
  msg.replica.children = refs(2);
  msg.replica.serve = true;
  msg.replica.root_set = refs(3);
  return msg;
}

TEST(ProtocolWire, SizeReplyCountsRootSetRoster) {
  EXPECT_EQ(size_reply().wire_size(), 122u);
}

TEST(ProtocolWire, RootReplicaCountsChildrenAndRoster) {
  EXPECT_EQ(root_replica().wire_size(), 168u);
}

// A delegation counts topic 16 + kind 1, then 24 bytes per child handed over.
TEST(ProtocolWire, DelegateCountsHandedOverChildren) {
  scribe::DelegateMsg msg;
  msg.agg_kind = scribe::AggregateKind::Max;
  msg.episode = 6;
  msg.children = refs(2);
  EXPECT_EQ(msg.wire_size(), 65u);
}

// An ack carries the child's last report only once it has reported to the
// parent; the value costs 8 bytes, and a duplicate keeps it.
TEST(ProtocolWire, HeartbeatAckCountsCarriedReport) {
  scribe::HeartbeatAckMsg ack;
  EXPECT_EQ(ack.wire_size(), 16u);
  ack.report = 3.5;
  EXPECT_EQ(ack.wire_size(), 24u);
  const auto copy = ack.clone_msg();
  const auto* msg = util::msg_as<scribe::HeartbeatAckMsg>(*copy);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->report, 3.5);
  EXPECT_EQ(msg->wire_size(), 24u);
}

// The link conditioner duplicates a message through clone_msg(): the copy
// must carry the embedded record, not a default-constructed one.
TEST(ProtocolWire, SizeReplyCloneKeepsTheSizeInfo) {
  const auto original = size_reply();
  const auto copy = original.clone_msg();
  const auto* reply = util::msg_as<scribe::SizeReplyMsg>(*copy);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->request_id, 5u);
  EXPECT_EQ(reply->info.value, 42.0);
  EXPECT_EQ(reply->info.epoch, 3u);
  EXPECT_TRUE(reply->info.stale);
  EXPECT_EQ(reply->info.age, util::SimTime::millis(120));
  EXPECT_TRUE(reply->info.from_root_set);
  EXPECT_EQ(reply->root_set.size(), 3u);
  EXPECT_EQ(reply->wire_size(), original.wire_size());
}

TEST(ProtocolWire, RootReplicaCloneKeepsTheReplicaState) {
  const auto original = root_replica();
  const auto copy = original.clone_msg();
  const auto* msg = util::msg_as<scribe::RootReplicaMsg>(*copy);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->replica.epoch, 4u);
  EXPECT_EQ(msg->replica.agg_kind, scribe::AggregateKind::Sum);
  EXPECT_EQ(msg->replica.value, 17.0);
  EXPECT_EQ(msg->replica.snapshot_time, util::SimTime::millis(750));
  EXPECT_EQ(msg->replica.children.size(), 2u);
  EXPECT_TRUE(msg->replica.serve);
  EXPECT_EQ(msg->replica.root_set.size(), 3u);
  EXPECT_EQ(msg->wire_size(), original.wire_size());
}

// Pastry envelopes name their app by interned id; the wire still carries
// the name, so each envelope costs 24 bytes plus the name plus the message.
TEST(ProtocolWire, EnvelopesCountTheAppNameBytes) {
  const std::pair<const char*, std::size_t> expected[] = {
      {"scribe", 198}, {"rbay.query", 202}, {"past", 196}, {"wire.test", 201}};
  for (const auto& [name, bytes] : expected) {
    pastry::RouteEnvelope route;
    route.app = pastry::intern_app(name);
    route.msg = root_replica().clone_msg();
    EXPECT_EQ(route.wire_size(), bytes) << name;
    pastry::DirectEnvelope direct;
    direct.app = pastry::intern_app(name);
    direct.msg = root_replica().clone_msg();
    EXPECT_EQ(direct.wire_size(), bytes) << name;
  }
}

/// An untagged message, as tests and benches define them.
struct PlainMsg final : pastry::AppMessage {
  [[nodiscard]] std::size_t wire_size() const override { return 1; }
  [[nodiscard]] const char* type_name() const override { return "PlainMsg"; }
};

using ProtocolMessages =
    std::tuple<scribe::JoinMsg, scribe::JoinAckMsg, scribe::LeaveMsg, scribe::MulticastMsg,
               scribe::AnycastMsg, scribe::AnycastResultMsg, scribe::AggReportMsg,
               scribe::SizeProbeMsg, scribe::SizeReplyMsg, scribe::RootReplicaMsg,
               scribe::DelegateMsg, scribe::DelegateAckMsg, scribe::DelegateNackMsg,
               scribe::ReparentMsg, scribe::HeartbeatMsg, scribe::HeartbeatAckMsg,
               core::SiteQueryRequest, core::SiteQueryReply, core::CommitMsg, core::RenewMsg,
               core::ReleaseMsg, PlainMsg>;

template <class Msg, class... Others>
void expect_only_own_tag(std::tuple<Others...>* /*types*/) {
  Msg msg;
  pastry::AppMessage& base = msg;
  (
      [&] {
        const bool same = std::is_same_v<Msg, Others>;
        const bool untagged = std::is_same_v<Others, PlainMsg>;
        EXPECT_EQ(util::msg_as<Others>(base) != nullptr, same && !untagged)
            << base.type_name() << " as " << Others{}.type_name();
        if (!same) {
          EXPECT_NE(util::msg_tag<Msg>(), util::msg_tag<Others>());
        }
      }(),
      ...);
}

TEST(ProtocolDispatch, EachMessageMatchesOnlyItsOwnTag) {
  []<class... Msgs>(std::tuple<Msgs...>* types) {
    (expect_only_own_tag<Msgs>(types), ...);
  }(static_cast<ProtocolMessages*>(nullptr));
}

TEST(ProtocolDispatch, CandidatePayloadIsTagged) {
  core::CandidatePayload payload;
  scribe::AnycastPayload& base = payload;
  EXPECT_EQ(util::msg_as<core::CandidatePayload>(base), &payload);
  const auto copy = payload.clone();
  EXPECT_NE(util::msg_as<core::CandidatePayload>(*copy), nullptr);
}

}  // namespace
}  // namespace rbay
