#include <gtest/gtest.h>

#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"

namespace rbay::obs {
namespace {

using util::SimTime;

// --- Counter / Gauge ---------------------------------------------------------

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksValueAndHighWaterMark) {
  Gauge g;
  g.set(5);
  g.set(12);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 12);
}

// --- LatencyHisto ------------------------------------------------------------

TEST(LatencyHisto, EmptyHistogramIsAllZero) {
  LatencyHisto h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_us(), 0);
  EXPECT_EQ(h.min_us(), 0);
  EXPECT_EQ(h.max_us(), 0);
  EXPECT_EQ(h.percentile_us(50), 0);
}

TEST(LatencyHisto, TracksExactCountSumMinMax) {
  LatencyHisto h;
  h.add(SimTime::micros(100));
  h.add(SimTime::micros(200));
  h.add(SimTime::micros(300));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum_us(), 600);
  EXPECT_EQ(h.min_us(), 100);
  EXPECT_EQ(h.max_us(), 300);
}

TEST(LatencyHisto, SmallValuesAreExact) {
  // Values below 2^kSubBits land in unit-width buckets: percentiles exact.
  LatencyHisto h;
  for (int v = 0; v < 16; ++v) h.add_us(v);
  EXPECT_EQ(h.percentile_us(1), 0);
  EXPECT_EQ(h.percentile_us(100), 15);
  EXPECT_EQ(h.percentile_us(50), 7);  // nearest rank: 8th of 16 values
}

TEST(LatencyHisto, PercentilesAreMonotoneAndBounded) {
  LatencyHisto h;
  for (int i = 1; i <= 1000; ++i) h.add_us(i * 37);
  std::int64_t prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const auto v = h.percentile_us(p);
    EXPECT_GE(v, prev) << "p" << p;
    EXPECT_GE(v, h.min_us());
    EXPECT_LE(v, h.max_us());
    prev = v;
  }
}

TEST(LatencyHisto, LogLinearResolutionStaysWithinRelativeError) {
  // One value per histogram: every percentile must land within ~6%
  // (1/2^kSubBits) of the value, for magnitudes spanning the range.
  for (std::int64_t v : {100LL, 5'000LL, 1'000'000LL, 3'600'000'000LL}) {
    LatencyHisto h;
    h.add_us(v);
    const auto p50 = h.percentile_us(50);
    EXPECT_NEAR(static_cast<double>(p50), static_cast<double>(v),
                static_cast<double>(v) * 0.07)
        << "value " << v;
  }
}

// --- Scope / Registry --------------------------------------------------------

TEST(Scope, LookupCreatesOnceAndReferencesAreStable) {
  Scope s;
  EXPECT_TRUE(s.empty());
  Counter& a = s.counter<"x">();
  a.inc();
  // Creating unrelated metrics must not move `a` (std::map node stability).
  for (int i = 0; i < 100; ++i) s.counter(MetricKey{std::string("c").append(std::to_string(i))});
  s.gauge<"g">().set(7);
  s.latency<"l">().add_us(5);
  EXPECT_EQ(&s.counter<"x">(), &a);
  EXPECT_EQ(s.counter<"x">().value(), 1u);
  EXPECT_FALSE(s.empty());
}

/// Records a query trace straight into a causal log: the points the query
/// layer records, minus the network between them.
struct TraceWriter {
  CausalLog& log;
  TraceContext root;

  TraceWriter(CausalLog& l, const std::string& query_id, SimTime at)
      : log(l), root(l.begin_trace(query_id, 0, 0, at)) {}

  TraceContext point(const TraceContext& parent, const char* what, Phase phase, SimTime since,
                     SimTime at, int hops) {
    ContextScope scope(&log, parent);
    return log.phase_point(0, 0, what, phase, since, at, hops);
  }
  void incident(const char* what, SimTime at) {
    ContextScope scope(&log, root);
    log.local(0, 0, what, at);
  }
  void finish(SimTime at, bool satisfied, int attempts) {
    log.finish_trace(root, 0, 0, at, satisfied, attempts);
  }
};

TEST(Registry, JsonHasAllSectionsAndIsStable) {
  Registry reg;
  reg.fed().counter<"events">().inc(3);
  reg.site(1).counter<"msgs">().inc();
  reg.fed().latency<"lat">().add_us(250);
  TraceWriter q{reg.causal(), "q-1", SimTime::micros(10)};
  q.point(q.root, "query.probe", Phase::kProbe, SimTime::micros(10), SimTime::micros(20), 2);
  q.finish(SimTime::micros(30), true, 1);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"federation\""), std::string::npos);
  EXPECT_NE(json.find("\"sites\""), std::string::npos);
  EXPECT_NE(json.find("\"traces\""), std::string::npos);
  EXPECT_NE(json.find("\"events\":3"), std::string::npos);
  EXPECT_NE(json.find("\"q-1\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
  // Pure serialization: a second call emits identical bytes.
  EXPECT_EQ(reg.to_json(), json);
  // Integer-only contract: no floating point formatting anywhere.  The
  // only dots are in the names of the trace.* counters tracing binds.
  std::string values = json;
  for (const std::string name : {"trace.events", "trace.dropped", "trace.flight_overwrites"}) {
    const auto at = values.find(name);
    ASSERT_NE(at, std::string::npos) << name;
    values.erase(at, name.size());
  }
  EXPECT_EQ(values.find('.'), std::string::npos) << json;
}

TEST(Registry, JsonEscapesStringContent) {
  Registry reg;
  TraceWriter q{reg.causal(), "q\"1\\\n", SimTime::zero()};
  q.finish(SimTime::micros(1), false, 1);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("q\\\"1\\\\\\n"), std::string::npos) << json;
}

// --- Query trace view --------------------------------------------------------

TEST(QueryTraceView, RecordsSpansAndEventsInOrder) {
  CausalLog log;
  TraceWriter q{log, "q", SimTime::micros(0)};
  q.point(q.root, "query.probe", Phase::kProbe, SimTime::micros(0), SimTime::micros(40), 3);
  const auto anycast = q.point(q.root, "query.anycast", Phase::kAnycast, SimTime::micros(40),
                               SimTime::micros(40), 0);
  q.incident("query.conflict", SimTime::micros(70));
  q.point(anycast, "query.member_search", Phase::kMemberSearch, SimTime::micros(40),
          SimTime::micros(90), 4);
  q.finish(SimTime::micros(100), true, 1);

  const auto trace = build_query_trace(log, "q");
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->done);
  EXPECT_TRUE(trace->satisfied);
  EXPECT_TRUE(trace->complete);
  EXPECT_EQ(trace->finished, SimTime::micros(100));
  ASSERT_EQ(trace->spans.size(), 3u);
  EXPECT_EQ(trace->spans[0].phase, Phase::kProbe);
  EXPECT_EQ(trace->spans[0].latency(), SimTime::micros(40));
  EXPECT_EQ(trace->spans[0].hops, 3);
  // The walk's end closed the anycast span it hangs off.
  EXPECT_EQ(trace->spans[1].phase, Phase::kAnycast);
  EXPECT_EQ(trace->spans[1].end, SimTime::micros(90));
  EXPECT_EQ(trace->spans[1].hops, 1);
  EXPECT_EQ(trace->spans[2].phase, Phase::kMemberSearch);
  EXPECT_EQ(trace->spans[2].hops, 4);
  EXPECT_FALSE(trace->has_phase(Phase::kCommit));
  EXPECT_TRUE(trace->has_event("conflict"));
  EXPECT_FALSE(trace->has_event("backoff_retry"));
}

TEST(QueryTraceView, FinishClosesAbandonedOpenSpans) {
  CausalLog log;
  TraceWriter q{log, "q", SimTime::micros(0)};
  const auto anycast = q.point(q.root, "query.anycast", Phase::kAnycast, SimTime::micros(10),
                               SimTime::micros(10), 0);
  q.finish(SimTime::micros(50), false, 2);
  // A walk ending after its query finished does not reopen the span.
  q.point(anycast, "query.member_search", Phase::kMemberSearch, SimTime::micros(10),
          SimTime::micros(80), 1);
  const auto trace = build_query_trace(log, "q");
  ASSERT_TRUE(trace.has_value());
  const auto* span = trace->first_span(Phase::kAnycast);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->end, SimTime::micros(50));
  EXPECT_EQ(span->hops, 0);
  EXPECT_EQ(trace->attempts, 2);
}

TEST(QueryTraceView, UntracedPointsAreIgnored) {
  CausalLog log;
  log.phase_point(0, 0, "query.probe", Phase::kProbe, SimTime::zero(), SimTime::micros(1), 1);
  log.local(0, 0, "query.conflict", SimTime::zero());
  log.finish_trace(TraceContext{}, 0, 0, SimTime::micros(1), true, 1);
  EXPECT_FALSE(build_query_trace(log, "ghost").has_value());
  std::string json;
  write_query_traces_json(log, json);
  EXPECT_EQ(json, "[]");
}

TEST(QueryTraceView, CapsRecordedTraces) {
  CausalLog log;
  std::size_t inactive = 0;
  for (std::size_t i = 0; i < CausalLog::kMaxTraces + 10; ++i) {
    const auto ctx = log.begin_trace(std::string("q").append(std::to_string(i)), 0, 0,
                                     SimTime::micros(static_cast<std::int64_t>(i)));
    if (!ctx.active()) ++inactive;
  }
  EXPECT_EQ(log.traces_by_query().size(), CausalLog::kMaxTraces);
  EXPECT_EQ(inactive, 10u);
}

TEST(QueryTraceView, LogBoundMarksTraceIncomplete) {
  Registry reg;
  CausalLog& log = reg.causal();
  TraceWriter early{log, "early", SimTime::zero()};
  early.finish(SimTime::micros(1), true, 1);
  TraceWriter full{log, "full", SimTime::micros(2)};
  // Fill the log from inside one trace: the last point has no room.
  while (log.events().size() < CausalLog::kMaxEvents) {
    full.incident("query.conflict", SimTime::micros(3));
  }
  auto& dropped = reg.fed().counter<"trace.dropped">();
  EXPECT_EQ(dropped.value(), 0u);
  full.finish(SimTime::micros(4), true, 1);
  EXPECT_EQ(dropped.value(), 1u);

  const auto trace = build_query_trace(log, "full");
  ASSERT_TRUE(trace.has_value());
  EXPECT_FALSE(trace->complete);
  // The lost terminus does not lose the outcome.
  EXPECT_TRUE(trace->done);
  EXPECT_EQ(trace->finished, SimTime::micros(4));
  EXPECT_TRUE(build_query_trace(log, "early")->complete);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"query_id\":\"full\",\"started_us\":2,\"finished_us\":4,\"done\":true,"
                      "\"satisfied\":true,\"attempts\":1,\"complete\":false,"),
            std::string::npos);
  // Only the incomplete trace carries the key.
  EXPECT_EQ(json.find("\"complete\""), json.rfind("\"complete\""));
}

TEST(PhaseNames, AllFiveAreDistinct) {
  EXPECT_STREQ(phase_name(Phase::kProbe), "probe");
  EXPECT_STREQ(phase_name(Phase::kAnycast), "anycast");
  EXPECT_STREQ(phase_name(Phase::kMemberSearch), "member_search");
  EXPECT_STREQ(phase_name(Phase::kSlotFill), "slot_fill");
  EXPECT_STREQ(phase_name(Phase::kCommit), "commit");
}

}  // namespace
}  // namespace rbay::obs
