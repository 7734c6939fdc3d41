#include "model/reference_model.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace rbay::model {

ReferenceModel::ReferenceModel(std::vector<std::string> site_names,
                               std::vector<core::TreeSpec> specs, core::Taxonomy taxonomy)
    : site_names_(std::move(site_names)),
      specs_(std::move(specs)),
      taxonomy_(std::move(taxonomy)) {}

std::size_t ReferenceModel::add_node(net::SiteId site) {
  RBAY_REQUIRE(site < site_names_.size(), "site out of range");
  NodeState n;
  n.site = site;
  n.gateway = std::none_of(nodes_.begin(), nodes_.end(),
                           [&](const NodeState& m) { return m.site == site; });
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

// --- workload mirror --------------------------------------------------------

void ReferenceModel::post(std::size_t node, const std::string& attr,
                          store::AttributeValue value) {
  nodes_.at(node).attrs[attr] = std::move(value);
}

void ReferenceModel::remove_attribute(std::size_t node, const std::string& attr) {
  nodes_.at(node).attrs.erase(attr);
  nodes_.at(node).hidden.erase(attr);
}

void ReferenceModel::set_hidden(std::size_t node, const std::string& attr, bool hidden) {
  if (hidden) {
    nodes_.at(node).hidden.insert(attr);
  } else {
    nodes_.at(node).hidden.erase(attr);
  }
}

void ReferenceModel::multicast_set_hidden(net::SiteId site, const core::TreeSpec& spec,
                                          const std::string& attr, bool hidden) {
  // Delivery set = the members at multicast time; a crashed node or a
  // non-member never sees the command (and keeps its old visibility).
  for (const auto node : members(spec.canonical, site)) set_hidden(node, attr, hidden);
}

// --- fault mirror -----------------------------------------------------------

void ReferenceModel::crash(std::size_t node) {
  nodes_.at(node).alive = false;
  // Cluster::on_node_crashed: every reservation the crashed node
  // *originated* is released on every resource, god-view.
  for (auto& n : nodes_) {
    if (n.tenancy && n.tenancy->origin == node) n.tenancy.reset();
  }
}

void ReferenceModel::recover(std::size_t node) { nodes_.at(node).alive = true; }

void ReferenceModel::set_partitioned(net::SiteId a, net::SiteId b, bool on) {
  if (a == b) return;
  const auto key = std::minmax(a, b);
  if (on) {
    partitions_.insert({key.first, key.second});
  } else {
    partitions_.erase({key.first, key.second});
  }
}

void ReferenceModel::heal_all() { partitions_.clear(); }

bool ReferenceModel::partitioned(net::SiteId a, net::SiteId b) const {
  if (a == b) return false;
  const auto key = std::minmax(a, b);
  return partitions_.count({key.first, key.second}) > 0;
}

bool ReferenceModel::reachable(std::size_t origin, std::size_t target) const {
  const auto& t = nodes_.at(target);
  if (!t.alive) return false;
  return !partitioned(nodes_.at(origin).site, t.site);
}

void ReferenceModel::apply_fault(const fault::FaultAction& action,
                                 const std::vector<std::size_t>& victims) {
  using fault::ActionKind;
  switch (action.kind) {
    case ActionKind::Crash:
    case ActionKind::CrashRandom:
      for (const auto v : victims) crash(v);
      break;
    case ActionKind::Recover:
    case ActionKind::RecoverAll:
      for (const auto v : victims) recover(v);
      break;
    case ActionKind::Partition:
    case ActionKind::Heal: {
      std::optional<net::SiteId> a, b;
      for (net::SiteId s = 0; s < site_names_.size(); ++s) {
        if (site_names_[s] == action.site_a) a = s;
        if (site_names_[s] == action.site_b) b = s;
      }
      RBAY_REQUIRE(a && b, "partition action names unknown site");
      set_partitioned(*a, *b, action.kind == ActionKind::Partition);
      break;
    }
    case ActionKind::HealAll:
      heal_all();
      break;
    case ActionKind::Drop:
    case ActionKind::Jitter:
      // Probabilistic delivery has no sequential mirror; the workload
      // generator never emits these (docs/TESTING.md, "what the oracle
      // does not model").
      break;
    case ActionKind::Weather:
      // Link weather (burst loss, duplication, reordering, gray links,
      // asymmetric partitions) perturbs delivery, not reachability: the
      // protocols must absorb it, so the sequential model ignores it and
      // the differential harness clears all weather before observing.
      break;
  }
}

// --- ground truth -----------------------------------------------------------

bool ReferenceModel::store_matches(const NodeState& n, const query::Predicate& pred) const {
  if (n.hidden.count(pred.attribute) > 0) return false;
  const auto it = n.attrs.find(pred.attribute);
  if (it == n.attrs.end()) return false;
  return pred.matches(it->second);
}

bool ReferenceModel::is_member(std::size_t node, const core::TreeSpec& spec) const {
  const auto& n = nodes_.at(node);
  return n.alive && store_matches(n, spec.predicate);
}

std::vector<std::size_t> ReferenceModel::members(const std::string& canonical,
                                                 net::SiteId site) const {
  const core::TreeSpec* spec = nullptr;
  for (const auto& s : specs_) {
    if (s.canonical == canonical) spec = &s;
  }
  std::vector<std::size_t> out;
  if (spec == nullptr) return out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].site == site && is_member(i, *spec)) out.push_back(i);
  }
  return out;
}

double ReferenceModel::tree_size(const std::string& canonical, net::SiteId site) const {
  auto n = static_cast<double>(members(canonical, site).size());
#ifdef RBAY_MODEL_MUTATE_AGGREGATE
  // Oracle sensitivity self-test: mis-fold every non-empty aggregate by
  // one.  A harness that cannot catch and shrink this bias is vacuous.
  if (n > 0) n += 1.0;
#endif
  return n;
}

std::optional<std::string> ReferenceModel::resolve_tree(const query::Predicate& pred) const {
  const auto canonical = pred.canonical();
  auto has_spec = [&](const std::string& c) {
    return std::any_of(specs_.begin(), specs_.end(),
                       [&](const core::TreeSpec& s) { return s.canonical == c; });
  };
  if (has_spec(canonical)) return canonical;
  if (auto major = taxonomy_.major_of(pred.attribute)) {
    const auto existence = "has:" + *major;
    if (has_spec(existence)) return existence;
  }
  return std::nullopt;
}

std::optional<std::string> ReferenceModel::probed_tree(
    const std::vector<query::Predicate>& predicates, net::SiteId site) const {
  // Mirrors run_site_query: dedup resolved canonicals preserving predicate
  // order, then pick the smallest aggregate, first-min on ties.  An empty
  // tree means no node matches every predicate, so there is no answer.
  std::vector<std::string> trees;
  for (const auto& pred : predicates) {
    if (auto c = resolve_tree(pred)) {
      if (std::find(trees.begin(), trees.end(), *c) == trees.end()) trees.push_back(*c);
    }
  }
  std::optional<std::string> best;
  double best_size = 0.0;
  for (const auto& tree : trees) {
    const auto size = tree_size(tree, site);
    if (size <= 0.0) return std::nullopt;
    if (!best || size < best_size) {
      best = tree;
      best_size = size;
    }
  }
  return best;
}

bool ReferenceModel::gateway_alive(net::SiteId site) const {
  for (const auto& n : nodes_) {
    if (n.site == site && n.gateway) return n.alive;
  }
  return false;
}

// --- query predictions ------------------------------------------------------

namespace {

std::vector<net::SiteId> resolve_sites(const query::Query& query,
                                       const std::vector<std::string>& site_names) {
  std::vector<net::SiteId> out;
  if (query.sites.empty()) {
    for (net::SiteId s = 0; s < site_names.size(); ++s) out.push_back(s);
    return out;
  }
  for (const auto& name : query.sites) {
    for (net::SiteId s = 0; s < site_names.size(); ++s) {
      if (site_names[s] == name) out.push_back(s);
    }
  }
  return out;
}

}  // namespace

ReferenceModel::CountPrediction ReferenceModel::predict_count(
    std::size_t origin, const query::Query& query) const {
  CountPrediction out;
  const auto origin_site = nodes_.at(origin).site;
  for (const auto site : resolve_sites(query, site_names_)) {
    const bool answers = site == origin_site ||
                         (!partitioned(origin_site, site) && gateway_alive(site));
    if (!answers) {
      ++out.sites_timed_out;
      continue;
    }
    out.sites_answered.push_back(site);
    if (const auto tree = probed_tree(query.predicates, site)) {
      out.count += tree_size(*tree, site);
    }
  }
  std::sort(out.sites_answered.begin(), out.sites_answered.end());
  return out;
}

ReferenceModel::SelectPrediction ReferenceModel::predict_select(std::size_t origin,
                                                                const query::Query& query,
                                                                util::SimTime now) const {
  SelectPrediction out;
  const auto origin_site = nodes_.at(origin).site;
  for (const auto site : resolve_sites(query, site_names_)) {
    const bool answers = site == origin_site ||
                         (!partitioned(origin_site, site) && gateway_alive(site));
    if (!answers) {
      ++out.sites_timed_out;
      continue;
    }
    out.sites_answered.push_back(site);
    const auto tree = probed_tree(query.predicates, site);
    if (!tree) continue;
    int here = 0;
    for (const auto node : members(*tree, site)) {
      const auto& n = nodes_[node];
      const bool all_match =
          std::all_of(query.predicates.begin(), query.predicates.end(),
                      [&](const query::Predicate& p) { return store_matches(n, p); });
      if (!all_match) continue;
      // try_reserve fails only against a live foreign tenancy; an expired
      // lease is reclaimed on the spot.
      if (n.tenancy && (!n.tenancy->lease_bounded || n.tenancy->lease_expiry > now)) {
        continue;
      }
      out.eligible.insert(node);
      ++here;
    }
    out.gatherable += std::min(query.k, here);
  }
  std::sort(out.sites_answered.begin(), out.sites_answered.end());
  out.satisfied = out.gatherable >= query.k;
  return out;
}

// --- reservation ledger -----------------------------------------------------

void ReferenceModel::commit(std::size_t origin, const query::QueryId& query_id,
                            const std::vector<std::size_t>& nodes, util::SimTime now,
                            util::SimTime lease) {
  for (const auto node : nodes) {
    if (!reachable(origin, node)) continue;  // CommitMsg dropped
    Tenancy t;
    t.holder = query_id;
    t.origin = origin;
    t.lease_bounded = lease != util::SimTime::zero();
    t.lease_expiry = t.lease_bounded ? now + lease : util::SimTime::zero();
    nodes_.at(node).tenancy = std::move(t);
  }
}

void ReferenceModel::release(std::size_t origin, const query::QueryId& query_id,
                             const std::vector<std::size_t>& nodes) {
  for (const auto node : nodes) {
    if (!reachable(origin, node)) continue;  // ReleaseMsg dropped
    auto& tenancy = nodes_.at(node).tenancy;
    if (tenancy && tenancy->holder == query_id) tenancy.reset();
  }
}

std::map<std::size_t, query::QueryId> ReferenceModel::committed_now(util::SimTime now) const {
  std::map<std::size_t, query::QueryId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& t = nodes_[i].tenancy;
    if (!t) continue;
    if (t->lease_bounded && t->lease_expiry <= now) continue;
    out.emplace(i, t->holder);
  }
  return out;
}

}  // namespace rbay::model
