#include "fault/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <sstream>

#include "core/naming.hpp"

namespace rbay::fault {

namespace {

/// Clockwise arc length from `from` to `to` on the id ring.
pastry::NodeId cw_distance(const pastry::NodeId& from, const pastry::NodeId& to) {
  return to - from;
}

std::string short_id(const pastry::NodeRef& ref) { return ref.id.to_hex().substr(0, 8); }

/// (spec, site) context prefix for violation details.
std::string tree_tag(const core::TreeSpec& spec, const std::string& site_name) {
  return "tree '" + spec.canonical + "' @ " + site_name + ": ";
}

}  // namespace

void InvariantReport::add(const std::string& invariant, std::string detail) {
  violations.push_back(Violation{invariant, std::move(detail), {}});
}

void InvariantReport::add(const std::string& invariant, std::string detail,
                          std::vector<std::size_t> nodes) {
  violations.push_back(Violation{invariant, std::move(detail), std::move(nodes)});
}

void InvariantReport::merge(InvariantReport other) {
  for (auto& v : other.violations) violations.push_back(std::move(v));
}

std::vector<std::size_t> InvariantReport::named_nodes() const {
  std::set<std::size_t> unique;
  for (const auto& v : violations) unique.insert(v.nodes.begin(), v.nodes.end());
  return {unique.begin(), unique.end()};
}

std::string InvariantReport::to_string() const {
  if (ok()) return "all invariants hold";
  std::ostringstream out;
  out << violations.size() << " invariant violation(s):\n";
  for (const auto& v : violations) out << "  [" << v.invariant << "] " << v.detail << "\n";
  return out.str();
}

InvariantReport check_tree_reachability(core::RBayCluster& cluster) {
  InvariantReport report;
  auto& overlay = cluster.overlay();
  const auto& directory = cluster.directory();
  const auto& trees = cluster.tree_table();
  for (std::size_t t = 0; t < trees.specs().size(); ++t) {
    const auto& spec = trees.specs()[t];
    for (net::SiteId s = 0; s < directory.site_names.size(); ++s) {
      const auto& site_name = directory.site_names[s];
      const auto& topic = trees.topic(t, s);
      const auto tag = tree_tag(spec, site_name);

      std::vector<std::size_t> members;
      std::vector<std::size_t> roots;
      for (const auto i : cluster.nodes_in_site(s)) {
        if (overlay.is_failed(i)) continue;
        auto& node = cluster.node(i);
        if (node.subscribed_to(spec)) members.push_back(i);
        if (node.scribe().is_root_of(topic)) roots.push_back(i);
      }
      if (members.empty() && roots.empty()) continue;

      if (roots.empty()) {
        report.add("tree-reachability",
                   tag + std::to_string(members.size()) + " live member(s) but no live root",
                   members);
        continue;
      }
      if (roots.size() > 1) {
        std::string list;
        for (const auto r : roots) {
          list += ' ';
          list += std::to_string(r);
        }
        report.add("tree-reachability", tag + "split brain: multiple live roots:" + list,
                   roots);
        continue;
      }

      // BFS down the child links from the single root; dead children are
      // skipped here (child-consistency reports them separately).
      std::set<std::size_t> visited;
      std::deque<std::size_t> frontier{roots.front()};
      visited.insert(roots.front());
      while (!frontier.empty()) {
        const auto at = frontier.front();
        frontier.pop_front();
        for (const auto& child : cluster.node(at).scribe().children_of(topic)) {
          const auto ci = cluster.index_of(child.id);
          if (overlay.is_failed(ci)) continue;
          if (visited.insert(ci).second) frontier.push_back(ci);
        }
      }
      for (const auto m : members) {
        if (visited.count(m) == 0) {
          report.add("tree-reachability",
                     tag + "live member node " + std::to_string(m) + " (" +
                         short_id(cluster.node(m).self()) +
                         ") unreachable from root node " + std::to_string(roots.front()),
                     {m, roots.front()});
        }
      }
    }
  }
  return report;
}

InvariantReport check_child_consistency(core::RBayCluster& cluster) {
  InvariantReport report;
  auto& overlay = cluster.overlay();
  const auto& directory = cluster.directory();
  const auto& trees = cluster.tree_table();
  for (std::size_t t = 0; t < trees.specs().size(); ++t) {
    const auto& spec = trees.specs()[t];
    for (net::SiteId s = 0; s < directory.site_names.size(); ++s) {
      const auto& site_name = directory.site_names[s];
      const auto& topic = trees.topic(t, s);
      const auto tag = tree_tag(spec, site_name);
      for (const auto i : cluster.nodes_in_site(s)) {
        if (overlay.is_failed(i)) continue;
        auto& scribe = cluster.node(i).scribe();

        // Downward: every ChildState on a live node must name a live node
        // whose parent link points back here.
        for (const auto& child : scribe.children_of(topic)) {
          const auto ci = cluster.index_of(child.id);
          if (overlay.is_failed(ci)) {
            report.add("child-consistency",
                       tag + "node " + std::to_string(i) + " holds dead child " +
                           std::to_string(ci) + " (" + short_id(child) + ")",
                       {i, ci});
            continue;
          }
          const auto childs_parent = cluster.node(ci).scribe().parent_of(topic);
          if (!childs_parent.has_value() ||
              childs_parent->id != cluster.node(i).self().id) {
            report.add("child-consistency",
                       tag + "orphaned ChildState: node " + std::to_string(i) +
                           " lists child " + std::to_string(ci) +
                           " which is attached elsewhere",
                       {i, ci});
          }
        }

        // Upward: a live node's parent must be live and must list it.
        const auto parent = scribe.parent_of(topic);
        if (!parent.has_value()) continue;
        const auto pi = cluster.index_of(parent->id);
        if (overlay.is_failed(pi)) {
          report.add("child-consistency",
                     tag + "node " + std::to_string(i) + " still points at dead parent " +
                         std::to_string(pi),
                     {i, pi});
          continue;
        }
        const auto siblings = cluster.node(pi).scribe().children_of(topic);
        const bool listed = std::any_of(siblings.begin(), siblings.end(),
                                        [&](const scribe::NodeRef& c) {
                                          return c.id == cluster.node(i).self().id;
                                        });
        if (!listed) {
          report.add("child-consistency",
                     tag + "half-link: node " + std::to_string(i) + "'s parent " +
                         std::to_string(pi) + " does not list it as a child",
                     {i, pi});
        }
      }
    }
  }
  return report;
}

InvariantReport check_aggregates(core::RBayCluster& cluster, double tolerance) {
  InvariantReport report;
  auto& overlay = cluster.overlay();
  const auto& directory = cluster.directory();
  const auto& trees = cluster.tree_table();
  for (std::size_t t = 0; t < trees.specs().size(); ++t) {
    const auto& spec = trees.specs()[t];
    for (net::SiteId s = 0; s < directory.site_names.size(); ++s) {
      const auto& site_name = directory.site_names[s];
      const auto& topic = trees.topic(t, s);

      double truth = 0.0;
      std::vector<std::size_t> roots;
      for (const auto i : cluster.nodes_in_site(s)) {
        if (overlay.is_failed(i)) continue;
        auto& node = cluster.node(i);
        if (node.subscribed_to(spec)) truth += 1.0;
        if (node.scribe().is_root_of(topic)) roots.push_back(i);
      }
      // Roll-up only has a defined ground truth under a single live root;
      // the reachability checker already reports missing/split roots.
      if (roots.size() != 1 || truth == 0.0) continue;
      const double at_root = cluster.node(roots.front()).scribe().aggregate_value(topic);
      if (std::abs(at_root - truth) > tolerance) {
        report.add("aggregate",
                   tree_tag(spec, site_name) + "root node " + std::to_string(roots.front()) +
                       " reports " + std::to_string(at_root) + ", live members = " +
                       std::to_string(truth),
                   {roots.front()});
      }
    }
  }
  return report;
}

InvariantReport check_reservations(core::RBayCluster& cluster) {
  InvariantReport report;
  auto& overlay = cluster.overlay();
  const auto now = cluster.engine().now();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (overlay.is_failed(i)) continue;  // a dead node's lock is unobservable
    auto& lock = cluster.node(i).lock();
    const bool committed = lock.committed(now);
    const bool reserved = lock.reserved(now);
    if (!committed && !reserved) continue;

    const auto& holder = *lock.holder();
    const auto where = "node " + std::to_string(i) + " held by '" + to_string(holder) + "'";
    const std::size_t self_idx = i;
    std::size_t origin = 0;
    while (origin < cluster.size() && cluster.node(origin).self().id != holder.origin) ++origin;
    if (origin == cluster.size()) {
      report.add("reservation", where + ": holder does not resolve to any node",
                 {self_idx});
      continue;
    }
    if (overlay.is_failed(origin)) {
      report.add("reservation",
                 where + ": holder's node " + std::to_string(origin) + " is dead",
                 {self_idx, origin});
      continue;
    }
    if (reserved && !committed) {
      report.add("reservation",
                 where + ": anycast hold still pending at quiescence (expires " +
                     std::to_string(lock.hold_expiry().as_millis()) + "ms)",
                 {self_idx, origin});
    }
  }
  return report;
}

InvariantReport check_pastry(const pastry::Overlay& overlay) {
  InvariantReport report;
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    if (!overlay.is_failed(i)) live.push_back(i);
  }
  // God-view ring order for the symmetry check.
  std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
    return overlay.ref(a).id < overlay.ref(b).id;
  });

  auto check_leaf_side = [&](std::size_t idx, const pastry::NodeRefView& side,
                             bool clockwise, int half_size) {
    const auto who = "node " + std::to_string(idx) + " " +
                     (clockwise ? "cw" : "ccw") + " leaf side: ";
    if (side.size() > static_cast<std::size_t>(half_size)) {
      report.add("pastry-leaf", who + "overflows half_size", {idx});
    }
    const auto& owner = overlay.ref(idx).id;
    std::set<pastry::NodeId> seen;
    for (std::size_t i = 0; i < side.size(); ++i) {
      if (side[i].id == owner) report.add("pastry-leaf", who + "contains its owner", {idx});
      if (overlay.is_failed(overlay.index_of(side[i].id))) {
        report.add("pastry-leaf",
                   who + "contains dead node " + side[i].id.to_hex().substr(0, 8),
                   {idx, overlay.index_of(side[i].id)});
      }
      if (!seen.insert(side[i].id).second) {
        report.add("pastry-leaf", who + "duplicate entry", {idx});
      }
      if (i == 0) continue;
      const auto prev = clockwise ? cw_distance(owner, side[i - 1].id)
                                  : cw_distance(side[i - 1].id, owner);
      const auto cur = clockwise ? cw_distance(owner, side[i].id)
                                 : cw_distance(side[i].id, owner);
      if (!(prev < cur)) {
        report.add("pastry-leaf", who + "not sorted by ring distance", {idx});
      }
    }
  };

  auto check_table = [&](std::size_t idx, const pastry::RoutingTable& table,
                         const char* which) {
    const auto& owner = overlay.ref(idx).id;
    for (int row = 0; row < pastry::kDigits; ++row) {
      for (int col = 0; col < pastry::kDigitValues; ++col) {
        const auto entry = table.entry(row, col);
        if (!entry.has_value()) continue;
        const auto slot = std::string(which) + " table row " + std::to_string(row) +
                          " col " + std::to_string(col);
        if (entry->id == owner) {
          report.add("pastry-routing",
                     "node " + std::to_string(idx) + " " + slot + " holds its owner", {idx});
          continue;
        }
        if (owner.shared_prefix_digits(entry->id) != row ||
            entry->id.digit(row) != static_cast<unsigned>(col)) {
          report.add("pastry-routing",
                     "node " + std::to_string(idx) + " " + slot +
                         " violates the prefix rule (" + entry->id.to_hex().substr(0, 8) +
                         ")",
                     {idx});
        }
      }
    }
  };

  for (std::size_t pos = 0; pos < live.size(); ++pos) {
    const auto idx = live[pos];
    const auto& node = overlay.node(idx);
    const int half = node.leaf_set().half_size();
    check_leaf_side(idx, node.leaf_set().clockwise(), /*clockwise=*/true, half);
    check_leaf_side(idx, node.leaf_set().counter_clockwise(), /*clockwise=*/false, half);
    check_table(idx, node.routing_table(), "global");
    check_table(idx, node.site_routing_table(), "site");

    // Symmetry against the true ring: my immediate clockwise neighbor must
    // be the next live id, and it must name me back.  Exact whenever leaf
    // sets are saturated (all nodes recovered, or the live population fits
    // within half_size per side — the regimes the chaos suite checks in).
    if (live.size() < 2) continue;
    const auto succ = live[(pos + 1) % live.size()];
    const auto cw = node.leaf_set().clockwise();
    if (cw.empty()) {
      report.add("pastry-leaf",
                 "node " + std::to_string(idx) + " lost its whole clockwise side", {idx});
      continue;
    }
    if (cw.front().id != overlay.ref(succ).id) {
      report.add("pastry-leaf",
                 "node " + std::to_string(idx) +
                     ": immediate successor is not the next live id",
                 {idx, succ});
      continue;
    }
    const auto succ_ccw = overlay.node(succ).leaf_set().counter_clockwise();
    if (succ_ccw.empty() || succ_ccw.front().id != node.self().id) {
      report.add("pastry-leaf",
                 "node " + std::to_string(succ) + " does not point back at node " +
                     std::to_string(idx) + " (asymmetric leaf sets)",
                 {succ, idx});
    }
  }
  return report;
}

InvariantReport check_replicas(core::RBayCluster& cluster) {
  InvariantReport report;
  auto& overlay = cluster.overlay();
  const auto& directory = cluster.directory();
  const auto& trees = cluster.tree_table();
  for (std::size_t t = 0; t < trees.specs().size(); ++t) {
    const auto& spec = trees.specs()[t];
    for (net::SiteId s = 0; s < directory.site_names.size(); ++s) {
      const auto& site_name = directory.site_names[s];
      const auto& topic = trees.topic(t, s);

      std::vector<std::size_t> roots;
      for (const auto i : cluster.nodes_in_site(s)) {
        if (overlay.is_failed(i)) continue;
        if (cluster.node(i).scribe().is_root_of(topic)) roots.push_back(i);
      }
      // Replica epochs only have a defined ordering against a single live
      // root (reachability reports missing/split roots separately).
      if (roots.size() != 1) continue;
      const std::size_t root = roots.front();
      auto& root_scribe = cluster.node(root).scribe();
      const auto root_epoch = root_scribe.root_epoch_of(topic);

      // At quiescence the repair window is over: the root must be serving
      // its live view again, not a replicated snapshot.
      if (root_scribe.is_degraded(topic)) {
        report.add("replica-consistency",
                   tree_tag(spec, site_name) + "root node " + std::to_string(root) +
                       " still degraded (serving a stale snapshot) at quiescence",
                   {root});
      }
      // No live node may hold a replica from the future of the root's own
      // epoch — that would mean a failover could move the epoch backwards.
      for (const auto i : cluster.nodes_in_site(s)) {
        if (overlay.is_failed(i)) continue;
        const auto* replica = cluster.node(i).scribe().replica_of(topic);
        if (replica != nullptr && replica->epoch > root_epoch) {
          report.add("replica-consistency",
                     tree_tag(spec, site_name) + "node " + std::to_string(i) +
                         " holds replica epoch " + std::to_string(replica->epoch) +
                         " ahead of root node " + std::to_string(root) + " epoch " +
                         std::to_string(root_epoch),
                     {i, root});
        }
      }
    }
  }
  return report;
}

InvariantReport check_fan_in(core::RBayCluster& cluster) {
  InvariantReport report;
  const int cap = cluster.config().node.scribe.fan_in_cap;
  if (cap <= 0) return report;  // splitting disabled
  auto& overlay = cluster.overlay();
  const auto& directory = cluster.directory();
  const auto& trees = cluster.tree_table();
  for (std::size_t t = 0; t < trees.specs().size(); ++t) {
    const auto& spec = trees.specs()[t];
    for (net::SiteId s = 0; s < directory.site_names.size(); ++s) {
      const auto& site_name = directory.site_names[s];
      const auto& topic = trees.topic(t, s);
      for (const auto i : cluster.nodes_in_site(s)) {
        if (overlay.is_failed(i)) continue;
        // Dead children are pruned by heartbeat repair and reported by
        // child-consistency; the cap binds the live fan-in.
        std::size_t live_children = 0;
        for (const auto& child : cluster.node(i).scribe().children_of(topic)) {
          if (!overlay.is_failed(cluster.index_of(child.id))) ++live_children;
        }
        if (live_children > static_cast<std::size_t>(cap)) {
          report.add("fan-in",
                     tree_tag(spec, site_name) + "node " + std::to_string(i) + " carries " +
                         std::to_string(live_children) + " live children, cap is " +
                         std::to_string(cap) + " (split/delegation failed to converge)",
                     {i});
        }
      }
    }
  }
  return report;
}

InvariantReport check_waiters(core::RBayCluster& cluster) {
  InvariantReport report;
  auto& overlay = cluster.overlay();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (overlay.is_failed(i)) continue;
    auto& scribe = cluster.node(i).scribe();
    if (scribe.anycast_waiter_count() > 0) {
      report.add("leaked-waiters",
                 "node " + std::to_string(i) + " has " +
                     std::to_string(scribe.anycast_waiter_count()) +
                     " anycast waiter(s) pending at quiescence (walk died without a "
                     "timeout to reap it)",
                 {i});
    }
    if (scribe.size_waiter_count() > 0) {
      report.add("leaked-waiters",
                 "node " + std::to_string(i) + " has " +
                     std::to_string(scribe.size_waiter_count()) +
                     " size-probe waiter(s) pending at quiescence",
                 {i});
    }
  }
  return report;
}

namespace {

constexpr NamedChecker kCheckers[] = {
    {"trees", check_tree_reachability},
    {"children", check_child_consistency},
    {"aggregates", [](core::RBayCluster& c) { return check_aggregates(c); }},
    {"reservations", check_reservations},
    {"replicas", check_replicas},
    {"fan-in", check_fan_in},
    {"waiters", check_waiters},
    {"pastry", [](core::RBayCluster& c) { return check_pastry(c.overlay()); }},
};

}  // namespace

util::Result<std::vector<const NamedChecker*>> find_checkers(
    const std::vector<std::string>& names) {
  std::vector<const NamedChecker*> found;
  if (names.empty()) {
    for (const NamedChecker& checker : kCheckers) found.push_back(&checker);
  }
  for (const std::string& name : names) {
    const auto* checker = std::find_if(std::begin(kCheckers), std::end(kCheckers),
                                       [&](const NamedChecker& c) { return name == c.name; });
    if (checker == std::end(kCheckers)) {
      std::string known;
      for (const NamedChecker& c : kCheckers) {
        if (!known.empty()) known += '|';
        known += c.name;
      }
      return util::make_error("unknown checker '" + name + "' (" + known + ")");
    }
    found.push_back(checker);
  }
  return found;
}

InvariantReport run_checkers(core::RBayCluster& cluster,
                             const std::vector<const NamedChecker*>& checkers) {
  InvariantReport report;
  for (const NamedChecker* checker : checkers) report.merge(checker->check(cluster));
  return report;
}

InvariantReport check_all(core::RBayCluster& cluster) {
  return run_checkers(cluster, find_checkers({}).value());
}

std::string failure_dump(core::RBayCluster& cluster, const InvariantReport& report) {
  std::ostringstream out;
  out << "=== chaos failure dump ===\n" << report.to_string();
  auto* registry = cluster.metrics();
  if (registry == nullptr) {
    out << "no obs registry attached: flight recorder and metrics unavailable\n";
    return out.str();
  }
  const auto& causal = registry->causal_log();
  for (const auto idx : report.named_nodes()) {
    if (idx >= cluster.size()) continue;
    const auto& self = cluster.node(idx).self();
    out << "--- flight recorder: node " << idx << " (" << self.id.to_hex().substr(0, 12)
        << ", site " << self.site << ", endpoint " << self.endpoint << ") ---\n";
    const std::string ring = causal.dump_flight(self.endpoint);
    out << (ring.empty() ? std::string("(empty ring)\n") : ring);
  }
  out << "--- obs registry ---\n" << registry->to_json() << "\n";
  return out.str();
}

}  // namespace rbay::fault
