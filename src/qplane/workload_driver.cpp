#include "qplane/workload_driver.hpp"

#include <utility>

namespace rbay::qplane {

OpenLoopDriver::OpenLoopDriver(sim::Engine& engine, ArrivalShape shape, std::size_t universe,
                               std::function<void(std::size_t)> issue)
    : engine_(engine), shape_(shape), universe_(universe), issue_(std::move(issue)),
      rng_(engine.rng().fork()) {
  RBAY_REQUIRE(universe_ > 0, "OpenLoopDriver: empty query universe");
  RBAY_REQUIRE(shape_.rate_qps > 0.0, "OpenLoopDriver: arrival rate must be positive");
}

void OpenLoopDriver::run(util::SimTime duration) {
  horizon_ = engine_.now() + duration;
  arm_next();
}

void OpenLoopDriver::arm_next() {
  const auto gap = util::SimTime::seconds(rng_.exponential(shape_.rate_qps));
  if (engine_.now() + gap >= horizon_) return;
  engine_.schedule(gap, [this] {
    ++arrivals_;
    issue_(static_cast<std::size_t>(rng_.zipf(universe_, shape_.zipf_skew)) - 1);
    arm_next();
  });
}

}  // namespace rbay::qplane
