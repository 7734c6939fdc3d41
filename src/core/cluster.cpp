#include "core/cluster.hpp"

namespace rbay::core {

RBayCluster::RBayCluster(ClusterConfig config)
    : config_(std::move(config)),
      engine_(config_.seed, config_.engine),
      overlay_(engine_, config_.topology, config_.pastry),
      tree_specs_(std::make_shared<std::vector<TreeSpec>>()),
      taxonomy_(std::make_shared<Taxonomy>()) {
  // Attach before any node exists so every component sees the registry
  // from its first event (the overlay constructor only builds the network,
  // which refreshes its metric handles lazily).
  if (config_.metrics) {
    metrics_ = std::make_unique<obs::Registry>();
    engine_.set_metrics(metrics_.get());
  }
  // Crash-release: a crashed node's reservations and leases — including
  // indefinite (lease-bounded == false) commits, which never expire — must
  // not pin resources forever.  Fires from every fail path (injector,
  // churn, scenario, bench) since they all go through Overlay::fail_node.
  overlay_.on_fail = [this](std::size_t index) { on_node_crashed(index); };
}

void RBayCluster::on_node_crashed(std::size_t index) {
  if (index >= nodes_.size()) return;  // overlay-only tests, pre-add_node
  // Query holders are "<12-hex-digit id prefix>#<seq>" (QueryInterface
  // naming); match any reservation the crashed node originated.
  const std::string prefix = nodes_[index]->pastry().self().id.to_hex().substr(0, 12) + "#";
  const auto now = engine_.now();
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    auto& lock = nodes_[j]->lock();
    const std::string holder = lock.holder();  // copy: release() clears it
    if (holder.size() > prefix.size() && holder.compare(0, prefix.size(), prefix) == 0) {
      lock.release(holder, now);
      if (metrics_ != nullptr) {
        metrics_->fed().counter("reservation.crash_releases").inc();
      }
    }
  }
}

RBayNode& RBayCluster::add_node(net::SiteId site, const std::string& admin) {
  RBAY_REQUIRE(!finalized_, "add_node after finalize");
  // Pin construction-time timers (Scribe aggregation/heartbeat, Pastry
  // maintenance) to the node's site shard; setup-time Rng draws still come
  // from the control stream, so node identities do not depend on the site
  // count.
  sim::Engine::ShardScope scope(engine_, engine_.shard_for_site(site));
  nodes_.push_back(std::make_unique<RBayNode>(overlay_, site, admin, config_.node));
  return *nodes_.back();
}

void RBayCluster::populate(std::size_t per_site) {
  for (net::SiteId s = 0; s < config_.topology.site_count(); ++s) {
    for (std::size_t i = 0; i < per_site; ++i) {
      add_node(s, config_.topology.site(s).name + "-admin");
    }
  }
}

void RBayCluster::add_tree_spec(TreeSpec spec) {
  RBAY_REQUIRE(!finalized_, "add_tree_spec after finalize");
  tree_specs_->push_back(std::move(spec));
}

void RBayCluster::set_taxonomy(Taxonomy taxonomy) {
  RBAY_REQUIRE(!finalized_, "set_taxonomy after finalize");
  *taxonomy_ = std::move(taxonomy);
}

std::vector<std::size_t> RBayCluster::nodes_in_site(net::SiteId site) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->site() == site) out.push_back(i);
  }
  return out;
}

void RBayCluster::finalize() {
  RBAY_REQUIRE(!finalized_, "finalize called twice");
  RBAY_REQUIRE(!nodes_.empty(), "finalize with no nodes");
  finalized_ = true;

  overlay_.build_static();

  // Designate the first node of each site as its gateway ("border router").
  auto directory = std::make_shared<Directory>();
  for (net::SiteId s = 0; s < config_.topology.site_count(); ++s) {
    directory->site_names.push_back(config_.topology.site(s).name);
    const auto members = nodes_in_site(s);
    RBAY_REQUIRE(!members.empty(), "every site needs at least one node");
    directory->gateways.push_back(nodes_[members.front()]->self());
  }
  directory_ = std::move(directory);

  for (auto& node : nodes_) {
    node->set_tree_specs(tree_specs_);
    node->set_taxonomy(taxonomy_);
    node->set_directory(directory_);
  }

  resubscribe_all();
  engine_.run();  // drain the join traffic
}

void RBayCluster::resubscribe_all() {
  for (auto& node : nodes_) node->reevaluate_subscriptions();
}

HealthPublisher& RBayCluster::enable_health(HealthConfig config) {
  RBAY_REQUIRE(finalized_, "RBayCluster::enable_health: call after finalize()");
  if (health_ == nullptr) {
    health_ = std::make_unique<HealthPublisher>(*this, config);
    health_->start();
  }
  return *health_;
}

obs::ChromeTraceLabels RBayCluster::chrome_labels() const {
  obs::ChromeTraceLabels labels;
  for (net::SiteId s = 0; s < config_.topology.site_count(); ++s) {
    labels.sites[s] = config_.topology.site(s).name;
  }
  for (const auto& node : nodes_) {
    const auto& self = node->self();
    labels.endpoints[self.endpoint] =
        obs::ChromeEndpoint{self.site, "node " + self.id.to_hex().substr(0, 12)};
  }
  return labels;
}

}  // namespace rbay::core
