#include "federation.hpp"

#include "pastry/overlay.hpp"

namespace perfbench {

using namespace rbay;

const std::vector<std::string>& instance_types() {
  static const std::vector<std::string> kTypes = {
      "t2.micro",   "t2.small",   "t2.medium",  "m3.medium",  "m3.large",  "m3.xlarge",
      "m3.2xlarge", "c3.large",   "c3.xlarge",  "c3.2xlarge", "c3.4xlarge", "c3.8xlarge",
      "g2.2xlarge", "r3.large",   "r3.xlarge",  "r3.2xlarge", "r3.4xlarge", "r3.8xlarge",
      "i2.xlarge",  "i2.2xlarge", "i2.4xlarge", "i2.8xlarge", "hs1.8xlarge"};
  return kTypes;
}

const std::string& gaussian_instance_type(util::Rng& rng) {
  const auto& types = instance_types();
  const double center = static_cast<double>(types.size() - 1) / 2.0;
  for (;;) {
    const double g = rng.gaussian(center, static_cast<double>(types.size()) / 5.0);
    const auto idx = static_cast<long>(g + 0.5);
    if (idx >= 0 && idx < static_cast<long>(types.size())) {
      return types[static_cast<std::size_t>(idx)];
    }
  }
}

namespace {

core::ClusterConfig cluster_config(const FederationConfig& config) {
  core::ClusterConfig c;
  c.topology = net::Topology::ec2_eight_sites();
  c.seed = config.seed;
  c.engine = sim::EngineConfig{};  // serial engine, whatever the environment says
  c.node.scribe.aggregation_interval = util::SimTime::millis(250);
  c.node.query.max_attempts = 4;
  c.metrics = config.metrics;
  if (config.tune) config.tune(c);
  return c;
}

// "The onGet handler is invoked for each query to return the NodeId list,
// only checking if the password matches or not" (§IV.A).
constexpr const char* kPasswordHandler = R"(
AA = {Password = "rbay"}
function onGet(caller, payload)
  if payload == AA.Password then return true end
  return nil
end)";

}  // namespace

Federation::Federation(const FederationConfig& config, Spans& spans)
    : cluster(cluster_config(config)), rng(config.seed ^ 0x9E3779B97F4A7C15ULL),
      config_(config), spans_(spans) {}

void Federation::build() {
  for (const auto& type : instance_types()) {
    cluster.add_tree_spec(core::TreeSpec::from_predicate(
        {"instance", query::CompareOp::Eq, store::AttributeValue{type}}));
  }
  cluster.add_tree_spec(core::TreeSpec::from_predicate(
      {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}}));
  cluster.add_tree_spec(core::TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  spans_.time("core", "RBayCluster::populate", [&] { cluster.populate(config_.per_site); });

  bool posted = true;
  auto post = [&](core::RBayNode& node, const char* name, store::AttributeValue value,
                  const std::string& handler = {}) {
    const double dt = spans_.time("store", "RBayNode::post", [&] {
      posted = node.post(name, std::move(value), handler).ok() && posted;
    });
    post_us_.add(dt * 1e6);
  };
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& node = cluster.node(i);
    post(node, "instance", gaussian_instance_type(rng), kPasswordHandler);
    post(node, "CPU_utilization", rng.uniform_double());
    post(node, "GPU", rng.chance(0.3));
    post(node, "Matlab", rng.chance(0.5) ? "9.0" : "8.0");
  }
  RBAY_REQUIRE(posted, "federation set-up: RBayNode::post failed");

  if (config_.metrics) {
    sim::Engine engine{config_.seed};
    pastry::Overlay shadow{engine, cluster.config().topology};
    shadow.populate(config_.per_site);
    build_static_s_ =
        spans_.time("pastry", "Overlay::build_static", [&] { shadow.build_static(); });
  }
  finalize_s_ = spans_.time("scribe", "RBayCluster::finalize", [&] { cluster.finalize(); });
  spans_.time("sim", "Engine::run_for", [&] { cluster.run_for(util::SimTime::seconds(3)); });
}

void Federation::layers(Result& result) const {
  result.metric("scribe.finalize_s", finalize_s_, "s");
  result.metric("pastry.build_static_s", build_static_s_, "s");
  result.metric("store.post_us_p50", pct(post_us_, 50), "us");
}

std::size_t count_matching(core::RBayCluster& cluster, net::SiteId site,
                           const query::Predicate& pred) {
  std::size_t n = 0;
  for (const auto i : cluster.nodes_in_site(site)) {
    if (cluster.overlay().is_failed(i)) continue;
    const auto* attr = cluster.node(i).attributes().find(pred.attribute);
    if (attr != nullptr && !cluster.node(i).is_hidden(pred.attribute) &&
        pred.matches(attr->value())) {
      ++n;
    }
  }
  return n;
}

std::uint64_t total_gets_served(core::RBayCluster& cluster) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) n += cluster.node(i).gets_served();
  return n;
}

}  // namespace perfbench
