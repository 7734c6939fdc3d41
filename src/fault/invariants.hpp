#pragma once

// Post-convergence invariant checkers for the chaos harness.
//
// Each checker inspects a quiesced federation with god-view access and
// reports violations instead of asserting, so one run can surface every
// broken invariant at once and the caller (gtest suite, scenario driver,
// CI) decides how to fail.  The invariants are the correctness contract
// behind the paper's §V reliability results:
//
//   tree-reachability   every live subscribed member of every (spec, site)
//                       tree is reachable from that tree's single live root
//                       by walking live children links;
//   child-consistency   no ChildState entry names a dead node or a node
//                       that re-attached under a different parent, and
//                       every live child's parent link is mirrored by the
//                       parent's child entry (no orphans, no half-links);
//   aggregates          the root's Count roll-up equals the ground-truth
//                       live member count recomputed from the god view;
//   reservations        no lock is held by a dead or unresolvable holder,
//                       and no anycast hold is still pending at quiescence;
//   replica-consistency no live node holds a root-state replica whose
//                       epoch is ahead of the live root's own epoch, and
//                       no root is still serving a degraded (stale)
//                       snapshot at quiescence;
//   leaked-waiters      every anycast / size-probe waiter map is empty
//                       (walks complete or time out; none die silently);
//   pastry              leaf-set order/symmetry and routing-table prefix
//                       rule (the checks of tests/pastry/invariant_test).
//
// All checkers expect the cluster to have *quiesced*: heartbeat prune and
// rejoin rounds done, aggregation reports propagated, anycast holds
// expired.  Run them mid-churn and transient states will be reported —
// that is by design (the caller chooses the observation point).

#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "pastry/overlay.hpp"
#include "util/result.hpp"

namespace rbay::fault {

struct Violation {
  std::string invariant;  // which checker fired, e.g. "tree-reachability"
  std::string detail;     // what exactly is wrong, with node/topic context
  /// Cluster indices of the nodes named in `detail` — drives the flight
  /// recorder dump in failure_dump().
  std::vector<std::size_t> nodes;
};

struct InvariantReport {
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
  void add(const std::string& invariant, std::string detail);
  void add(const std::string& invariant, std::string detail, std::vector<std::size_t> nodes);
  void merge(InvariantReport other);
  /// Every node index named by any violation, deduplicated and sorted.
  [[nodiscard]] std::vector<std::size_t> named_nodes() const;
};

InvariantReport check_tree_reachability(core::RBayCluster& cluster);
InvariantReport check_child_consistency(core::RBayCluster& cluster);
InvariantReport check_aggregates(core::RBayCluster& cluster, double tolerance = 1e-6);
InvariantReport check_reservations(core::RBayCluster& cluster);
/// Replica-consistency: with a single live root, no live node holds a
/// replica epoch ahead of the root's (a failover could then regress the
/// epoch), and the root is no longer degraded at quiescence.
InvariantReport check_replicas(core::RBayCluster& cluster);
/// Fan-in caps (hot-tree splitting): when `scribe.fan_in_cap` > 0, no live
/// node of any (spec, site) tree may carry more live children than the cap
/// at quiescence — overloads must have delegated their surplus.  Delegated
/// subtrees are ordinary child links, so the reachability / consistency /
/// aggregate checkers above accept them unchanged.
InvariantReport check_fan_in(core::RBayCluster& cluster);
/// No anycast/size-probe waiter may still be registered after quiescence
/// (the pre-timeout leak: a walk that died on a crashed node parked its
/// waiter forever).
InvariantReport check_waiters(core::RBayCluster& cluster);

/// Overlay-only checks; usable without a cluster (pastry churn tests).
InvariantReport check_pastry(const pastry::Overlay& overlay);

/// A checker under the name the scenario `check-invariants` directive and
/// the Watchdog take.
struct NamedChecker {
  const char* name;
  InvariantReport (*check)(core::RBayCluster& cluster);
};

/// Resolves checker names (trees, children, aggregates, reservations,
/// replicas, fan-in, waiters, pastry); an empty list is every checker, in
/// check_all's order.  Errors on an unknown name, listing the known ones.
util::Result<std::vector<const NamedChecker*>> find_checkers(
    const std::vector<std::string>& names);

/// Runs `checkers` in order and merges their reports.
InvariantReport run_checkers(core::RBayCluster& cluster,
                             const std::vector<const NamedChecker*>& checkers);

/// Runs every checker above and merges the reports.
InvariantReport check_all(core::RBayCluster& cluster);

/// Diagnostic payload for a failing report: the per-node flight-recorder
/// rings of every node named in the violations, followed by the full obs
/// registry JSON — so a failing chaos seed ships with the message history
/// that produced it and is diagnosable without a rerun.  Requires the
/// cluster to run with metrics attached; says so when it does not.
[[nodiscard]] std::string failure_dump(core::RBayCluster& cluster,
                                       const InvariantReport& report);

}  // namespace rbay::fault
