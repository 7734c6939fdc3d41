#include "pastry/overlay.hpp"

#include <algorithm>
#include <array>
#include <span>

namespace rbay::pastry {

Overlay::Overlay(sim::Engine& engine, net::Topology topology)
    : engine_(engine), network_(engine, std::move(topology)) {
  engine_.on_run_start([this] {
    auto* registry = engine_.metrics();
    if (registry == nullptr) return;
    // The routing metrics appear from the first run, whatever it routes.
    auto& fed = registry->fed();
    fed.counter<"pastry.routes">();
    fed.counter<"pastry.forwards">();
    fed.counter<"pastry.delivers">();
    fed.counter<"pastry.joins">();
    fed.counter<"pastry.leaf_repairs">();
    fed.latency<"pastry.delivery_hops">();
  });
}

PastryNode& Overlay::create_node(net::SiteId site) {
  RBAY_REQUIRE(!engine_.running(), "Overlay::create_node: the node table is read-only during runs");
  const auto i = nodes_.size();
  // Synthetic unique address: embeds site and index, mirroring the paper's
  // NodeId = SHA-1(IP) derivation.
  const std::string ip = "10." + std::to_string(site) + "." + std::to_string(i / 250) + "." +
                         std::to_string(i % 250) + ":" + std::to_string(i);
  auto node =
      std::make_unique<PastryNode>(network_, node_table_, static_cast<NodeIndex>(i), site, ip);
  RBAY_REQUIRE(by_id_.emplace(node->self().id, i).second,
               "Overlay::create_node: NodeId collision");
  node_table_.add(node->self());
  nodes_.push_back(std::move(node));
  failed_.push_back(false);
  return *nodes_.back();
}

void Overlay::populate(std::size_t per_site) {
  for (net::SiteId s = 0; s < network_.topology().site_count(); ++s) {
    for (std::size_t i = 0; i < per_site; ++i) create_node(s);
  }
}

namespace {

/// Scratch of one fill_tables depth: the group's digit partitions and
/// each partition's per-site representative (row-major, kDigitValues x
/// site count).  Every group at a depth reuses it; deeper levels have
/// their own, so a partition stays intact while its subgroup recurses.
struct FillScratch {
  std::array<std::vector<std::size_t>, kDigitValues> parts;
  std::vector<std::size_t> rep;
};

/// Recursively fills routing tables for a group of nodes sharing `depth`
/// leading digits: partition by the next digit, give every node one entry
/// per sibling partition (preferring a same-site representative), recurse.
void fill_tables(std::vector<std::unique_ptr<PastryNode>>& nodes, std::size_t site_count,
                 std::span<const std::size_t> group, int depth, bool site_scoped,
                 std::vector<FillScratch>& scratch) {
  if (group.size() <= 1 || depth >= kDigits) return;

  auto& [parts, rep] = scratch[static_cast<std::size_t>(depth)];
  for (auto& part : parts) part.clear();
  for (std::size_t idx : group) {
    parts[nodes[idx]->self().id.digit(depth, kBitsPerDigit)].push_back(idx);
  }

  // Per-partition, per-site representative index (first member wins; the
  // choice is deterministic and proximity dominates via same-site pick).
  rep.assign(kDigitValues * site_count, SIZE_MAX);
  for (unsigned d = 0; d < kDigitValues; ++d) {
    for (std::size_t idx : parts[d]) {
      auto& slot = rep[d * site_count + nodes[idx]->self().site];
      if (slot == SIZE_MAX) slot = idx;
    }
  }

  for (unsigned d = 0; d < kDigitValues; ++d) {
    if (parts[d].empty()) continue;
    for (std::size_t idx : parts[d]) {
      auto& node = *nodes[idx];
      for (unsigned e = 0; e < kDigitValues; ++e) {
        if (e == d || parts[e].empty()) continue;
        const std::span<const std::size_t> reps(rep.data() + e * site_count, site_count);
        // Prefer a representative in the node's own site, else the first
        // site that has one.
        std::size_t pick = reps[node.self().site];
        if (pick == SIZE_MAX) {
          if (site_scoped) continue;  // site tables only hold same-site nodes
          for (auto candidate : reps) {
            if (candidate != SIZE_MAX) {
              pick = candidate;
              break;
            }
          }
        }
        if (pick != SIZE_MAX) node.learn(nodes[pick]->self());
      }
    }
    fill_tables(nodes, site_count, parts[d], depth + 1, site_scoped, scratch);
  }
}

}  // namespace

void Overlay::build_static() {
  // Leaf sets: sort all ids; each node learns its ring neighbors on both
  // sides — O(n·L).  Site leaf sets get the same treatment per site.
  std::vector<std::size_t> order(nodes_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return nodes_[a]->self().id < nodes_[b]->self().id;
  });

  const auto n = order.size();
  const auto half = static_cast<std::size_t>(kLeafHalfSize);
  for (std::size_t pos = 0; pos < n; ++pos) {
    auto& node = *nodes_[order[pos]];
    for (std::size_t k = 1; k <= half && k < n; ++k) {
      node.learn(nodes_[order[(pos + k) % n]]->self());
      node.learn(nodes_[order[(pos + n - k) % n]]->self());
    }
  }

  // Per-site ring neighbors for the site-scoped leaf sets.
  const std::size_t site_count = network_.topology().site_count();
  std::vector<FillScratch> scratch(kDigits);
  for (net::SiteId s = 0; s < site_count; ++s) {
    std::vector<std::size_t> site_order;
    for (std::size_t i : order) {
      if (nodes_[i]->self().site == s) site_order.push_back(i);
    }
    const auto m = site_order.size();
    for (std::size_t pos = 0; pos < m; ++pos) {
      auto& node = *nodes_[site_order[pos]];
      for (std::size_t k = 1; k <= half && k < m; ++k) {
        node.learn(nodes_[site_order[(pos + k) % m]]->self());
        node.learn(nodes_[site_order[(pos + m - k) % m]]->self());
      }
    }
    // Site routing tables over same-site nodes only.
    fill_tables(nodes_, site_count, site_order, 0, /*site_scoped=*/true, scratch);
  }

  // Global routing tables.
  fill_tables(nodes_, site_count, order, 0, /*site_scoped=*/false, scratch);
}

std::size_t Overlay::index_of(const NodeId& id) const {
  auto it = by_id_.find(id);
  RBAY_REQUIRE(it != by_id_.end(), "Overlay::index_of: unknown NodeId");
  return it->second;
}

std::size_t Overlay::root_of(const NodeId& key) const {
  std::size_t best = SIZE_MAX;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (failed_[i]) continue;
    if (best == SIZE_MAX || closer_to(key, nodes_[i]->self().id, nodes_[best]->self().id)) {
      best = i;
    }
  }
  RBAY_REQUIRE(best != SIZE_MAX, "Overlay::root_of: no live nodes");
  return best;
}

std::size_t Overlay::root_of_in_site(const NodeId& key, net::SiteId site) const {
  std::size_t best = SIZE_MAX;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (failed_[i] || nodes_[i]->self().site != site) continue;
    if (best == SIZE_MAX || closer_to(key, nodes_[i]->self().id, nodes_[best]->self().id)) {
      best = i;
    }
  }
  RBAY_REQUIRE(best != SIZE_MAX, "Overlay::root_of_in_site: no live nodes in site");
  return best;
}

std::vector<std::size_t> Overlay::nodes_in_site(net::SiteId site) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->self().site == site) out.push_back(i);
  }
  return out;
}

void Overlay::recover_node(std::size_t i) {
  RBAY_REQUIRE(i < nodes_.size(), "Overlay::recover_node: index out of range");
  if (!failed_[i]) return;
  failed_[i] = false;
  network_.set_endpoint_down(nodes_[i]->self().endpoint, false);

  // Drop references to nodes that died while we were down.
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    if (failed_[j]) nodes_[i]->forget(nodes_[j]->self().id);
  }

  // Re-learn ring neighbors among live nodes (and vice versa), globally
  // and within the site.
  auto relink = [&](const std::vector<std::size_t>& live) {
    if (live.size() < 2) return;
    std::vector<std::size_t> order = live;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return nodes_[a]->self().id < nodes_[b]->self().id;
    });
    const auto pos = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), i) - order.begin());
    const auto half = static_cast<std::size_t>(kLeafHalfSize);
    const auto n = order.size();
    for (std::size_t k = 1; k <= half && k < n; ++k) {
      for (const auto neighbor : {order[(pos + k) % n], order[(pos + n - k) % n]}) {
        nodes_[i]->learn(nodes_[neighbor]->self());
        nodes_[neighbor]->learn(nodes_[i]->self());
      }
    }
  };

  std::vector<std::size_t> live;
  std::vector<std::size_t> live_site;
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    if (failed_[j]) continue;
    live.push_back(j);
    if (nodes_[j]->self().site == nodes_[i]->self().site) live_site.push_back(j);
  }
  relink(live);
  relink(live_site);
}

void Overlay::fail_node(std::size_t i) {
  RBAY_REQUIRE(i < nodes_.size(), "Overlay::fail_node: index out of range");
  if (failed_[i]) return;  // double-crash is a no-op, not a re-notification
  failed_[i] = true;
  network_.set_endpoint_down(nodes_[i]->self().endpoint, true);
  const NodeId dead = nodes_[i]->self().id;
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    if (j != i && !failed_[j]) nodes_[j]->forget(dead);
  }
  if (on_fail) on_fail(i);
}

}  // namespace rbay::pastry
