// Causal message-level tracing: a traced query must leave a well-formed
// causal event log (every event reachable from the root, sends paired
// with recvs), the per-phase span hop counts must reconcile with the
// causal log's message counts and the pastry delivery metrics, the
// critical path must telescope exactly to the end-to-end latency, and
// the per-endpoint flight recorder must stay bounded.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "core/cluster.hpp"
#include "obs/causal.hpp"
#include "obs/critical_path.hpp"

namespace rbay::core {
namespace {

using obs::CausalKind;
using obs::Phase;

struct CausalFixture {
  RBayCluster cluster;

  explicit CausalFixture(std::size_t per_site, std::uint64_t seed = 42)
      : cluster(make_config(seed)) {
    cluster.add_tree_spec(TreeSpec::from_predicate(
        {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
    cluster.add_tree_spec(TreeSpec::from_predicate(
        {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}}));
    cluster.populate(per_site);
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      EXPECT_TRUE(cluster.node(i).post("GPU", true).ok());
      EXPECT_TRUE(cluster.node(i).post("CPU_utilization", 0.05).ok());
    }
    cluster.finalize();
    cluster.run_for(util::SimTime::seconds(2));
  }

  static ClusterConfig make_config(std::uint64_t seed) {
    ClusterConfig config;
    config.seed = seed;
    config.metrics = true;
    config.node.scribe.aggregation_interval = util::SimTime::millis(100);
    config.node.query.max_attempts = 8;
    return config;
  }

  QueryOutcome run_query(std::size_t from, const std::string& sql) {
    QueryOutcome out;
    cluster.node(from).query().execute_sql(sql,
                                           [&](const QueryOutcome& o) { out = o; });
    cluster.run();
    return out;
  }

  [[nodiscard]] const obs::CausalLog& log() const {
    return const_cast<RBayCluster&>(cluster).metrics()->causal_log();
  }

  [[nodiscard]] int count_events(std::uint64_t trace_id, const std::string& what) const {
    int n = 0;
    for (const auto* ev : log().trace_events(trace_id)) {
      if (ev->what == what) ++n;
    }
    return n;
  }
};

TEST(CausalTrace, ContextPropagationAcrossQuery) {
  CausalFixture f{16};
  const auto out =
      f.run_query(0, "SELECT 3 FROM * WHERE GPU = true AND CPU_utilization < 10%");
  ASSERT_TRUE(out.satisfied) << out.error;

  const auto& log = f.log();
  const auto trace_id = log.trace_id_for(to_string(out.query_id));
  ASSERT_NE(trace_id, 0u) << "query was not traced";

  const auto* meta = log.find_trace(trace_id);
  ASSERT_NE(meta, nullptr);
  EXPECT_TRUE(meta->done);
  EXPECT_EQ(meta->query_id, to_string(out.query_id));
  EXPECT_EQ(meta->started, out.started);
  EXPECT_EQ(meta->finished, out.finished);

  const auto events = log.trace_events(trace_id);
  ASSERT_FALSE(events.empty());
  EXPECT_STREQ(events.front()->what, "query.start");
  EXPECT_EQ(f.count_events(trace_id, "query.start"), 1);
  EXPECT_EQ(f.count_events(trace_id, "query.finish"), 1);

  // The log is in simulation order and every event carries the trace id.
  std::set<std::uint64_t> spans;
  util::SimTime prev = util::SimTime::zero();
  for (const auto* ev : events) {
    EXPECT_EQ(ev->trace_id, trace_id);
    EXPECT_GE(ev->at, prev) << ev->what;
    prev = ev->at;
    spans.insert(ev->span_id);
  }

  // Every parent link lands on a span that exists in the same trace —
  // context propagated across every hop (the root is the only orphan).
  std::map<std::uint64_t, int> send_count;
  std::map<std::uint64_t, int> recv_count;
  for (const auto* ev : events) {
    if (ev->parent_span_id == 0) {
      EXPECT_STREQ(ev->what, "query.start");
    } else {
      EXPECT_EQ(spans.count(ev->parent_span_id), 1u)
          << ev->what << " has an unknown parent span";
    }
    if (ev->kind == CausalKind::kSend) ++send_count[ev->span_id];
    if (ev->kind == CausalKind::kRecv) ++recv_count[ev->span_id];
  }

  // Fault-free run: every traced send is delivered exactly once, and the
  // send/recv pair shares the span id.
  EXPECT_FALSE(send_count.empty());
  for (const auto& [span, n] : send_count) {
    EXPECT_EQ(n, 1);
    EXPECT_EQ(recv_count[span], 1) << "send without matching recv on span " << span;
  }
  for (const auto& [span, n] : recv_count) {
    EXPECT_EQ(send_count[span], n) << "recv without matching send on span " << span;
  }
}

TEST(CausalTrace, HopAttributionCrossCheck) {
  CausalFixture f{16};
  auto* registry = f.cluster.metrics();
  const auto delivers_before = registry->fed().counter<"pastry.delivers">().value();

  const auto out =
      f.run_query(0, "SELECT 3 FROM * WHERE GPU = true AND CPU_utilization < 10%");
  ASSERT_TRUE(out.satisfied) << out.error;

  const auto& log = f.log();
  const auto trace_id = log.trace_id_for(to_string(out.query_id));
  ASSERT_NE(trace_id, 0u);

  const auto trace = obs::build_query_trace(log, to_string(out.query_id));
  ASSERT_TRUE(trace.has_value());

  // The MemberSearch span's hop count, the outcome's visit count, and the
  // causal log's member-visit events are three independent counts of the
  // same walk.
  ASSERT_NE(trace->first_span(Phase::kMemberSearch), nullptr);
  EXPECT_EQ(trace->first_span(Phase::kMemberSearch)->hops, out.members_visited);
  EXPECT_EQ(f.count_events(trace_id, "scribe.member_visit"), out.members_visited);

  // Same for the slot fills: span hops == causal events == k.
  ASSERT_NE(trace->first_span(Phase::kSlotFill), nullptr);
  EXPECT_EQ(trace->first_span(Phase::kSlotFill)->hops, 3);
  EXPECT_EQ(f.count_events(trace_id, "query.slot_fill"), 3);

  // Pastry-level cross-check: the delivery histogram samples once per
  // deliver, and the traced "pastry.deliver" causal points are a subset of
  // all delivers in the window (background routing is untraced).
  EXPECT_EQ(registry->fed().latency<"pastry.delivery_hops">().count(),
            registry->fed().counter<"pastry.delivers">().value());
  const auto traced_delivers = f.count_events(trace_id, "pastry.deliver");
  EXPECT_GE(traced_delivers, 1);
  EXPECT_GE(registry->fed().counter<"pastry.delivers">().value() - delivers_before,
            static_cast<std::uint64_t>(traced_delivers));
}

TEST(CausalTrace, CriticalPathReconciliation) {
  CausalFixture f{16};
  const auto out =
      f.run_query(0, "SELECT 3 FROM * WHERE GPU = true AND CPU_utilization < 10%");
  ASSERT_TRUE(out.satisfied) << out.error;

  const auto path = obs::analyze_critical_path(f.log(), to_string(out.query_id));
  EXPECT_EQ(path.query_id, to_string(out.query_id));
  EXPECT_TRUE(path.complete);
  ASSERT_FALSE(path.chain.empty());
  EXPECT_STREQ(path.chain.front().what, "query.start");
  EXPECT_STREQ(path.chain.back().what, "query.finish");

  // The acceptance pin: per-segment durations telescope exactly to the
  // end-to-end latency — no gaps, no double counting.
  EXPECT_EQ(path.total, out.latency());
  EXPECT_EQ(path.segment_sum(), path.total);

  // The attributions are partitions of the same total.
  util::SimTime by_phase = util::SimTime::zero();
  for (const auto& [phase, t] : path.by_phase) by_phase = by_phase + t;
  EXPECT_EQ(by_phase, path.total);

  util::SimTime by_place = util::SimTime::zero();
  for (const auto& [site, t] : path.by_site) by_place = by_place + t;
  for (const auto& [link, t] : path.by_link) by_place = by_place + t;
  EXPECT_EQ(by_place, path.total);

  for (const auto& seg : path.segments) {
    EXPECT_LE(seg.start, seg.end);
    if (!seg.network) {
      EXPECT_EQ(seg.from_site, seg.to_site);
    }
  }

  // The renderings exist and mention the totals.
  EXPECT_NE(path.to_string().find("critical path"), std::string::npos);
  std::string json;
  path.write_json(json);
  EXPECT_NE(json.find("\"total_us\""), std::string::npos);
}

TEST(CausalTrace, FlightRecorderRingStaysBounded) {
  CausalFixture f{8};
  auto& causal = f.cluster.metrics()->causal();
  causal.set_flight_capacity(4);

  const auto out = f.run_query(0, "SELECT 2 FROM * WHERE GPU = true");
  ASSERT_TRUE(out.satisfied) << out.error;

  const auto endpoint = f.cluster.node(0).self().endpoint;
  const auto ring = causal.flight_events(endpoint);
  ASSERT_FALSE(ring.empty());
  EXPECT_LE(ring.size(), 4u);

  // Ring contents are oldest-first and in time order.
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_GE(ring[i].at, ring[i - 1].at);
  }

  // Plenty of traffic wrapped the tiny rings; the overwrites are counted
  // in trace.flight_overwrites, and none of them is a lost trace event.
  auto& fed = f.cluster.metrics()->fed();
  EXPECT_GT(fed.counter<"trace.flight_overwrites">().value(), 0u);
  EXPECT_EQ(fed.counter<"trace.dropped">().value(), 0u);
  EXPECT_GT(fed.counter<"trace.events">().value(), 0u);

  const auto dump = causal.dump_flight(endpoint);
  EXPECT_NE(dump.find("flight recorder endpoint"), std::string::npos);
  EXPECT_NE(dump.find("t="), std::string::npos);
}

/// Runs the calling thread as execution slot `index` until destroyed, the
/// way the engine does around a shard's events.
struct OnSlot {
  explicit OnSlot(std::uint32_t index) { obs::exec_slot().index = index; }
  ~OnSlot() { obs::exec_slot().index = 0; }
  OnSlot(const OnSlot&) = delete;
  OnSlot& operator=(const OnSlot&) = delete;
};

TEST(CausalTrace, TraceCapIsCountedPerSlot) {
  obs::CausalLog log;
  log.set_slots(3);
  {
    OnSlot on{1};
    for (std::size_t i = 0; i < obs::CausalLog::kMaxTraces; ++i) {
      EXPECT_TRUE(log.begin_trace(std::string("a").append(std::to_string(i)), 0, 0,
                                  util::SimTime::zero())
                      .active());
    }
    EXPECT_FALSE(log.begin_trace("a-over", 0, 0, util::SimTime::zero()).active());
  }
  OnSlot on{2};
  const auto ctx = log.begin_trace("b", 1, 0, util::SimTime::zero());
  EXPECT_TRUE(ctx.active()) << "another slot's traces used up this slot's cap";
  EXPECT_EQ(log.trace_id_for("b"), ctx.trace_id);
  EXPECT_EQ(log.trace_id_for("a-over"), 0u);
  EXPECT_EQ(log.traces_by_query().size(), obs::CausalLog::kMaxTraces + 1);
}

/// Begins and finishes one trace, then drops one of its events by filling
/// a slot's share of the log, each step on the given slot of a log with
/// `slots` slots.  Returns the merged TraceMeta after checking that its
/// terminus is the span of the recorded "query.finish" event.
obs::TraceMeta trace_meta_on(std::uint32_t slots, std::uint32_t begin_on,
                             std::uint32_t finish_on, std::uint32_t drop_on) {
  obs::CausalLog log;
  log.set_slots(slots);
  obs::TraceContext root;
  {
    OnSlot on{begin_on};
    root = log.begin_trace("q", 0, 0, util::SimTime::micros(5));
  }
  {
    OnSlot on{finish_on};
    log.finish_trace(root, 0, 0, util::SimTime::micros(9), false, 3);
  }
  std::uint64_t terminus = 0;
  for (const auto* ev : log.trace_events(root.trace_id)) {
    if (std::string_view(ev->what) == "query.finish") terminus = ev->span_id;
  }
  {
    // A late reply arriving after the finish, until the slot's log is full.
    OnSlot on{drop_on};
    for (std::size_t i = 0; i <= obs::CausalLog::kMaxEvents / slots; ++i) {
      log.on_recv(root, 0, 0, "late.reply", util::SimTime::micros(10));
    }
  }
  const auto* meta = log.find_trace(root.trace_id);
  EXPECT_NE(meta, nullptr);
  if (meta == nullptr) return {};
  EXPECT_NE(terminus, 0u);
  EXPECT_EQ(meta->terminus_span, terminus);
  return *meta;
}

TEST(CausalTrace, TraceMetaDoesNotDependOnTheSlotsThatWroteIt) {
  const obs::TraceMeta one = trace_meta_on(1, 0, 0, 0);
  const obs::TraceMeta split = trace_meta_on(3, 0, 2, 1);
  EXPECT_EQ(split.query_id, one.query_id);
  EXPECT_EQ(split.root_span, one.root_span);
  EXPECT_EQ(split.started, one.started);
  EXPECT_EQ(split.finished, one.finished);
  EXPECT_EQ(split.done, one.done);
  EXPECT_EQ(split.satisfied, one.satisfied);
  EXPECT_EQ(split.attempts, one.attempts);
  EXPECT_EQ(split.complete, one.complete);
  EXPECT_TRUE(one.done);
  EXPECT_EQ(one.attempts, 3);
  EXPECT_FALSE(one.complete);
}

}  // namespace
}  // namespace rbay::core
