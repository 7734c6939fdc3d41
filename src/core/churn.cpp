#include "core/churn.hpp"

#include "obs/metrics.hpp"

namespace rbay::core {

namespace {
/// How often each node republishes its predicted availability.
constexpr util::SimTime kRefreshInterval = util::SimTime::seconds(1);
}  // namespace

ChurnDriver::ChurnDriver(RBayCluster& cluster, ChurnConfig config)
    : cluster_(cluster), config_(config) {
  const auto n = cluster_.size();
  trackers_.assign(n, monitor::ReliabilityTracker{});
  churny_.assign(n, false);
  gateway_.assign(n, false);
  timers_.resize(n);

  for (const auto& gw : cluster_.directory().gateways) {
    gateway_[cluster_.index_of(gw.id)] = true;
  }
  auto& rng = cluster_.engine().rng();
  for (std::size_t i = 0; i < n; ++i) {
    if (!gateway_[i]) churny_[i] = rng.chance(config_.churny_fraction);
  }
}

void ChurnDriver::start() {
  const auto now = cluster_.engine().now();
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    trackers_[i].record_up(now);
    if (!gateway_[i]) schedule_down(i);
  }
  refresh_timer_ = cluster_.engine().schedule_periodic(kRefreshInterval,
                                                       [this]() { refresh_reliability(); });
  refresh_reliability();
}

void ChurnDriver::stop() {
  for (auto& t : timers_) t.cancel();
  refresh_timer_.cancel();
}

void ChurnDriver::schedule_down(std::size_t i) {
  auto& rng = cluster_.engine().rng();
  const auto delay = util::SimTime::seconds(rng.exponential(1.0 / uptime_mean(i)));
  timers_[i] = cluster_.engine().schedule_background(delay, [this, i]() {
    if (cluster_.overlay().is_failed(i)) return;
    ++failures_;
    if (auto* reg = cluster_.engine().metrics()) reg->fed().counter<"churn.failures">().inc();
    trackers_[i].record_down(cluster_.engine().now());
    cluster_.overlay().fail_node(i);
    schedule_up(i);
  });
}

void ChurnDriver::schedule_up(std::size_t i) {
  auto& rng = cluster_.engine().rng();
  const auto delay =
      util::SimTime::seconds(rng.exponential(1.0 / config_.mean_downtime_s));
  timers_[i] = cluster_.engine().schedule_background(delay, [this, i]() {
    if (!cluster_.overlay().is_failed(i)) return;
    ++recoveries_;
    if (auto* reg = cluster_.engine().metrics()) reg->fed().counter<"churn.recoveries">().inc();
    const auto now = cluster_.engine().now();
    trackers_[i].record_up(now);
    cluster_.overlay().recover_node(i);
    // The node republishes its predicted availability and rejoins the
    // trees its attributes satisfy (tree repair handles stale parents).
    cluster_.node(i).attributes().update_value(
        "reliability", trackers_[i].predicted_availability(now));
    cluster_.node(i).reevaluate_subscriptions();
    schedule_down(i);
  });
}

void ChurnDriver::refresh_reliability() {
  const auto now = cluster_.engine().now();
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    if (cluster_.overlay().is_failed(i)) continue;
    cluster_.node(i).attributes().update_value("reliability",
                                               trackers_[i].predicted_availability(now));
  }
}

}  // namespace rbay::core
