// Admission controller: window/backlog mechanics, and the seed-matrixed
// statistical property — under Poisson overload with no backlog the shed
// fraction converges to the Erlang B loss formula B(W, lambda * L),
// independent of the service-time distribution (M/G/W/W insensitivity:
// half the seeds use exponential service, half deterministic).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "qplane/admission.hpp"
#include "qplane/workload_driver.hpp"
#include "sim/engine.hpp"
#include "util/sim_time.hpp"

namespace rbay::qplane {
namespace {

using Verdict = AdmissionController::Verdict;

TEST(Admission, DisabledWindowAdmitsEverything) {
  AdmissionController ac(0, 0);
  EXPECT_FALSE(ac.enabled());
  int started = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(ac.would_shed());
    EXPECT_EQ(ac.submit([&] { ++started; }), Verdict::Admit);
  }
  EXPECT_EQ(started, 100);
}

TEST(Admission, WindowFillsThenQueuesThenSheds) {
  AdmissionController ac(2, 2);
  std::vector<int> started;
  auto starter = [&started](int id) { return [&started, id] { started.push_back(id); }; };

  EXPECT_EQ(ac.submit(starter(1)), Verdict::Admit);
  EXPECT_EQ(ac.submit(starter(2)), Verdict::Admit);
  EXPECT_EQ(ac.submit(starter(3)), Verdict::Queue);
  EXPECT_EQ(ac.submit(starter(4)), Verdict::Queue);
  EXPECT_TRUE(ac.would_shed());
  EXPECT_EQ(started, (std::vector<int>{1, 2}));
  EXPECT_EQ(ac.inflight(), 2u);
  EXPECT_EQ(ac.queued(), 2u);

  // Releasing a slot transfers it to the oldest queued query, in FIFO
  // order, before release() returns.
  ac.release();
  EXPECT_EQ(started, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ac.inflight(), 2u);
  EXPECT_FALSE(ac.would_shed());

  ac.release();
  EXPECT_EQ(started, (std::vector<int>{1, 2, 3, 4}));
  ac.release();
  ac.release();
  EXPECT_EQ(ac.inflight(), 0u);
  EXPECT_EQ(ac.admitted_total(), 4u);
  EXPECT_EQ(ac.queued_total(), 2u);
}

TEST(Admission, SynchronousCompletionsDrainWithoutRecursion) {
  // Regression: a queued query whose `start` completes synchronously (a
  // cache-served probe) re-enters release() while the hand-off frame is
  // still live.  The old implementation ran the next hand-off from inside
  // the nested frame — one stack frame per queued query, with slot
  // bookkeeping interleaved across frames.  The drain loop must keep the
  // nesting depth at one, start queued queries in FIFO order, and leave
  // the accounting exact.
  AdmissionController ac(1, 8);
  std::vector<int> started;
  int depth = 0;
  int max_depth = 0;
  auto sync_query = [&](int id) {
    return [&, id] {
      ++depth;
      max_depth = std::max(max_depth, depth);
      started.push_back(id);
      ac.release();  // completes synchronously, inside the hand-off
      --depth;
    };
  };

  EXPECT_EQ(ac.submit([] {}), Verdict::Admit);  // occupies the window
  EXPECT_EQ(ac.submit(sync_query(1)), Verdict::Queue);
  EXPECT_EQ(ac.submit(sync_query(2)), Verdict::Queue);
  EXPECT_EQ(ac.submit(sync_query(3)), Verdict::Queue);
  EXPECT_EQ(ac.inflight(), 1u);
  EXPECT_EQ(ac.queued(), 3u);

  ac.release();  // frees the slot: the whole backlog drains from here

  EXPECT_EQ(started, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(max_depth, 1) << "hand-offs must not nest";
  EXPECT_EQ(ac.inflight(), 0u);
  EXPECT_EQ(ac.queued(), 0u);
  EXPECT_EQ(ac.admitted_total(), 4u);
  EXPECT_FALSE(ac.would_shed());
}

TEST(Admission, BacklogThatDrainedKeepsFifoOrderWhenItQueuesAgain) {
  AdmissionController ac(1, 3);
  std::vector<int> started;
  auto starter = [&started](int id) { return [&started, id] { started.push_back(id); }; };

  EXPECT_EQ(ac.queued(), 0u);  // nothing queued yet: no backlog
  EXPECT_EQ(ac.submit(starter(1)), Verdict::Admit);
  EXPECT_EQ(ac.submit(starter(2)), Verdict::Queue);
  ac.release();  // 2 takes the slot; the backlog is empty again
  EXPECT_EQ(ac.queued(), 0u);
  EXPECT_EQ(started, (std::vector<int>{1, 2}));

  EXPECT_EQ(ac.submit(starter(3)), Verdict::Queue);
  EXPECT_EQ(ac.submit(starter(4)), Verdict::Queue);
  EXPECT_EQ(ac.submit(starter(5)), Verdict::Queue);
  EXPECT_TRUE(ac.would_shed());
  ac.release();
  ac.release();
  ac.release();
  EXPECT_EQ(started, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(ac.inflight(), 1u);
  EXPECT_EQ(ac.queued(), 0u);
  EXPECT_EQ(ac.queued_total(), 4u);
}

TEST(Admission, ZeroBacklogShedsAtTheWindow) {
  AdmissionController ac(1, 0);
  EXPECT_EQ(ac.submit([] {}), Verdict::Admit);
  EXPECT_TRUE(ac.would_shed());
  ac.release();
  EXPECT_FALSE(ac.would_shed());
}

TEST(Admission, ErlangBRecurrence) {
  EXPECT_NEAR(erlang_b(1, 1.0), 0.5, 1e-9);
  EXPECT_NEAR(erlang_b(4, 4.0), 0.3106796, 1e-6);
  EXPECT_NEAR(erlang_b(2, 0.5), 1.0 / 13.0, 1e-9);
  EXPECT_LT(erlang_b(10, 0.1), 1e-9);
}

class AdmissionSheds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdmissionSheds, PoissonOverloadShedRateConvergesToErlangB) {
  const auto seed = GetParam();
  sim::Engine engine(seed);
  constexpr int kWindow = 4;
  constexpr double kRateQps = 100.0;
  constexpr double kMeanServiceS = 0.040;  // offered load a = 4 erlangs
  // Insensitivity: the formula holds for any service distribution with
  // this mean, so alternate per seed.
  const bool deterministic_service = seed % 2 == 0;

  AdmissionController ac(kWindow, 0);
  auto service_rng = engine.rng().fork();
  std::uint64_t shed = 0;
  std::uint64_t offered = 0;

  ArrivalShape shape;
  shape.rate_qps = kRateQps;
  shape.zipf_skew = 0.0;
  OpenLoopDriver driver(engine, shape, 1, [&](std::size_t) {
    ++offered;
    if (ac.would_shed()) {
      ++shed;
      return;
    }
    const double service_s = deterministic_service
                                 ? kMeanServiceS
                                 : service_rng.exponential(1.0 / kMeanServiceS);
    ac.submit([&ac, &engine, service_s] {
      engine.schedule(util::SimTime::seconds(service_s), [&ac] { ac.release(); });
    });
  });
  driver.run(util::SimTime::seconds(120));
  engine.run();

  ASSERT_GT(offered, 10000u) << "overload run too short to converge";
  const double measured = static_cast<double>(shed) / static_cast<double>(offered);
  const double expected = erlang_b(kWindow, kRateQps * kMeanServiceS);
  EXPECT_NEAR(measured, expected, 0.02)
      << "seed " << seed << ": shed " << shed << "/" << offered
      << (deterministic_service ? " (deterministic service)" : " (exponential service)");
}

INSTANTIATE_TEST_SUITE_P(SeedMatrix, AdmissionSheds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace rbay::qplane
