#pragma once

// Open-loop workload driver for throughput experiments.
//
// Arrivals follow a homogeneous Poisson process on the virtual clock;
// each arrival picks a target from a Zipf popularity distribution over a
// fixed universe of queries (the hot attribute gets the lion's share,
// matching the federation-traffic shape the enterprise-cloud overlay
// literature reports).  Open-loop means arrivals never wait
// for completions — overload is real, which is what admission control is
// for.

#include <cstdint>
#include <functional>

#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace rbay::qplane {

struct ArrivalShape {
  /// Base Poisson arrival rate, queries per virtual second.
  double rate_qps = 100.0;
  /// Zipf skew over the query universe (0 = uniform popularity).
  double zipf_skew = 0.9;
};

class OpenLoopDriver {
 public:
  /// `issue(rank)` fires per arrival with a zero-based popularity rank in
  /// [0, universe): rank 0 is the hottest query.
  OpenLoopDriver(sim::Engine& engine, ArrivalShape shape, std::size_t universe,
                 std::function<void(std::size_t)> issue);

  /// Schedules arrivals over [now, now + duration).  The caller still
  /// drives the engine (run/run_for); arrivals stop after the horizon.
  void run(util::SimTime duration);

  [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }

 private:
  void arm_next();

  sim::Engine& engine_;
  ArrivalShape shape_;
  std::size_t universe_;
  std::function<void(std::size_t)> issue_;
  util::Rng rng_;
  util::SimTime horizon_ = util::SimTime::zero();
  std::uint64_t arrivals_ = 0;
};

}  // namespace rbay::qplane
