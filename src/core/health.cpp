#include "core/health.hpp"

#include "core/cluster.hpp"
#include "core/query_interface.hpp"
#include "core/rbay_node.hpp"
#include "util/contract.hpp"

namespace rbay::core {

HealthPublisher::HealthPublisher(RBayCluster& cluster, HealthConfig config)
    : cluster_(cluster), config_(config) {
  RBAY_REQUIRE(config_.interval > util::SimTime::zero(),
               "HealthPublisher: interval must be positive");
}

HealthPublisher::~HealthPublisher() { stop(); }

void HealthPublisher::start() {
  if (started_) return;
  started_ = true;
  // A real (counted) periodic activity, not an observer: health publication
  // deliberately participates in the simulation — store puts, tree joins
  // and leaves, aggregation traffic are the feature, not a side effect.
  timer_ = cluster_.engine().schedule_periodic(config_.interval, [this] { publish_all(); });
}

void HealthPublisher::stop() {
  timer_.cancel();
  started_ = false;
}

std::size_t HealthPublisher::publish_all() {
  ++rounds_;
  std::size_t published = 0;
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    if (cluster_.network().is_down(cluster_.node(i).self().endpoint)) continue;
    publish_node(i);
    ++published;
  }
  return published;
}

void HealthPublisher::publish_node(std::size_t index) {
  RBayNode& node = cluster_.node(index);
  const util::SimTime now = cluster_.engine().now();

  const auto& admission = node.query().admission();
  const auto queue_depth = static_cast<std::int64_t>(admission.queued());
  const auto fan_in = static_cast<std::int64_t>(node.scribe().max_fan_in());

  // Integer per-mille hit ratio: float division would be deterministic
  // here, but integers keep every published value exactly representable
  // and greppable in dumps.
  const auto& cache = node.query().tree_sizes();
  const std::uint64_t lookups = cache.hits() + cache.misses();
  const std::int64_t hit_pm =
      lookups == 0 ? 0 : static_cast<std::int64_t>(cache.hits() * 1000 / lookups);

  const util::SimTime staleness = node.scribe().max_replica_age(now);
  const util::SimTime lag = node.scribe().max_heartbeat_lag(now);

  const bool overloaded = queue_depth >= config_.overload_queue_depth;

  // Raw puts + one re-evaluation: a six-post round must not run the tree
  // join/leave machinery six times.
  store::AttributeStore& store = node.attributes();
  store.update_value(health_attr::kQueueDepth, static_cast<double>(queue_depth));
  store.update_value(health_attr::kFanIn, static_cast<double>(fan_in));
  store.update_value(health_attr::kCacheHitPerMille, static_cast<double>(hit_pm));
  store.update_value(health_attr::kStalenessMs,
                     static_cast<double>(staleness.as_micros() / 1000));
  store.update_value(health_attr::kHeartbeatLagMs,
                     static_cast<double>(lag.as_micros() / 1000));
  store.update_value(health_attr::kOverloaded, overloaded);
  node.reevaluate_subscriptions();
}

std::size_t HealthPublisher::published_overloaded() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    RBayNode& node = cluster_.node(i);
    if (cluster_.network().is_down(node.self().endpoint)) continue;
    const auto* attr = node.attributes().find(health_attr::kOverloaded);
    if (attr != nullptr && attr->value().is_bool() && attr->value().as_bool()) ++n;
  }
  return n;
}

std::size_t HealthPublisher::published_healthy() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    RBayNode& node = cluster_.node(i);
    if (cluster_.network().is_down(node.self().endpoint)) continue;
    const auto* attr = node.attributes().find(health_attr::kOverloaded);
    if (attr != nullptr && attr->value().is_bool() && !attr->value().as_bool()) ++n;
  }
  return n;
}

}  // namespace rbay::core
