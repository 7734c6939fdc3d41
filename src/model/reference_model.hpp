#pragma once

// ReferenceModel: a centralized, sequential model of the information plane.
//
// The distributed sim answers queries through trees, gateways, anycasts,
// and reservation messages; this model answers the same questions from a
// single flat table — per-node attribute maps plus a god-view fault and
// reservation state.  The differential harness (model/harness.hpp) feeds
// both the same workload and fault schedule and diffs the observable
// outcomes at quiescence.
//
// Observable-equivalence rules the model encodes (docs/TESTING.md):
//  - Tree membership at quiescence is purely store-driven: a node is a
//    member of (spec, site) iff it is alive, in that site, the attribute
//    is present and not hidden, and the spec predicate matches.
//  - A COUNT answer is the sum, over sites the origin can reach, of the
//    *smallest positive* resolved-tree aggregate (first-min on ties) —
//    exact for one tree-backed predicate, a tight upper bound for
//    conjunctions.  That mirrors QueryInterface::run_site_query; the
//    oracle checks the implemented semantics, not an idealized filter.
//  - SELECT k is satisfied iff the per-site eligible members (member of
//    the probed tree, all predicates match, no live foreign tenancy) sum
//    to >= k, counting at most k per site (each site fills a k-slot
//    buffer).  Which k nodes get reserved is nondeterministic from the
//    model's viewpoint, so the harness validates the sim's choice against
//    the eligible set instead of predicting it ("validate then adopt").
//  - The reservation ledger mirrors commits/releases gated on message
//    reachability (target alive, sites not partitioned) and the crash
//    rule: a node crash releases every reservation it originated.
//
// Hybrid naming is resolved exactly like the sim: a predicate uses its
// own tree when registered, else the taxonomy maps the minor attribute to
// its major's "has:<major>" existence tree, else no tree backs it.

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/naming.hpp"
#include "fault/schedule.hpp"
#include "net/topology.hpp"
#include "query/reservation.hpp"
#include "query/sql.hpp"
#include "store/attribute.hpp"
#include "util/sim_time.hpp"

namespace rbay::model {

/// A committed (or still-leased) tenancy on one resource node.
struct Tenancy {
  query::QueryId holder;
  std::size_t origin = 0;  // node index that ran the query interface
  bool lease_bounded = false;
  util::SimTime lease_expiry = util::SimTime::zero();
};

class ReferenceModel {
 public:
  ReferenceModel(std::vector<std::string> site_names, std::vector<core::TreeSpec> specs,
                 core::Taxonomy taxonomy);

  /// Registers one node (same order as RBayCluster::add_node).  The first
  /// node of each site is its gateway, exactly like Cluster::finalize.
  std::size_t add_node(net::SiteId site);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] net::SiteId site_of(std::size_t node) const { return nodes_.at(node).site; }

  // --- workload mirror ------------------------------------------------------
  void post(std::size_t node, const std::string& attr, store::AttributeValue value);
  void remove_attribute(std::size_t node, const std::string& attr);
  void set_hidden(std::size_t node, const std::string& attr, bool hidden);
  /// Admin multicast: hide/expose `attr` on every *current member* of the
  /// spec's tree in `site` (non-members never see the multicast).
  void multicast_set_hidden(net::SiteId site, const core::TreeSpec& spec,
                            const std::string& attr, bool hidden);

  // --- fault mirror ---------------------------------------------------------
  void crash(std::size_t node);
  void recover(std::size_t node);
  void set_partitioned(net::SiteId a, net::SiteId b, bool on);
  void heal_all();
  /// FaultInjector::on_apply adapter: applies `action` with the concrete
  /// victims the injector chose (covers crash-random without a second RNG).
  void apply_fault(const fault::FaultAction& action, const std::vector<std::size_t>& victims);

  [[nodiscard]] bool crashed(std::size_t node) const { return !nodes_.at(node).alive; }
  [[nodiscard]] bool partitioned(net::SiteId a, net::SiteId b) const;
  /// Can a message from `origin`'s site reach `target` right now?
  [[nodiscard]] bool reachable(std::size_t origin, std::size_t target) const;

  // --- ground truth ---------------------------------------------------------
  /// Node is a live member of `spec`'s tree (site-local by construction).
  [[nodiscard]] bool is_member(std::size_t node, const core::TreeSpec& spec) const;
  /// Ascending node indexes of `canonical`'s members in `site`.
  [[nodiscard]] std::vector<std::size_t> members(const std::string& canonical,
                                                 net::SiteId site) const;
  /// Aggregate size of (canonical, site) — the value a fresh root reports.
  [[nodiscard]] double tree_size(const std::string& canonical, net::SiteId site) const;
  /// The tree canonical that backs `pred` here (direct, or via the
  /// taxonomy to the major's existence tree), or nullopt.
  [[nodiscard]] std::optional<std::string> resolve_tree(const query::Predicate& pred) const;

  // --- query predictions ----------------------------------------------------
  struct CountPrediction {
    double count = 0.0;
    std::vector<net::SiteId> sites_answered;  // ascending
    int sites_timed_out = 0;
  };
  /// SELECT COUNT issued from `origin` against `sites` (empty = all).
  [[nodiscard]] CountPrediction predict_count(std::size_t origin,
                                              const query::Query& query) const;

  struct SelectPrediction {
    bool satisfied = false;
    /// Union of per-site eligible nodes (uncapped) — any reserved
    /// candidate the sim returns must come from this set.
    std::set<std::size_t> eligible;
    /// Σ min(k, eligible per site): what the k-slot buffers can gather.
    int gatherable = 0;
    std::vector<net::SiteId> sites_answered;
    int sites_timed_out = 0;
  };
  [[nodiscard]] SelectPrediction predict_select(std::size_t origin,
                                                const query::Query& query,
                                                util::SimTime now) const;

  // --- reservation ledger ---------------------------------------------------
  /// Customer committed `query_id` (originated at `origin`) on `nodes`.
  /// Zero lease = indefinite.  Unreachable targets silently keep their
  /// previous state, mirroring a dropped CommitMsg.
  void commit(std::size_t origin, const query::QueryId& query_id,
              const std::vector<std::size_t>& nodes, util::SimTime now, util::SimTime lease);
  /// Customer released `query_id` on `nodes` (same reachability gating).
  void release(std::size_t origin, const query::QueryId& query_id,
               const std::vector<std::size_t>& nodes);
  /// node index -> holder for every tenancy whose lease is live at `now`.
  [[nodiscard]] std::map<std::size_t, query::QueryId> committed_now(util::SimTime now) const;

  [[nodiscard]] const std::vector<core::TreeSpec>& specs() const { return specs_; }
  [[nodiscard]] const std::vector<std::string>& site_names() const { return site_names_; }

 private:
  struct NodeState {
    net::SiteId site = 0;
    bool alive = true;
    bool gateway = false;
    std::map<std::string, store::AttributeValue> attrs;
    std::set<std::string> hidden;
    std::optional<Tenancy> tenancy;
  };

  [[nodiscard]] bool store_matches(const NodeState& n, const query::Predicate& pred) const;
  [[nodiscard]] bool gateway_alive(net::SiteId site) const;
  /// Per-site answer shared by COUNT and SELECT: the smallest resolved
  /// tree (first-min ties), or nullopt when nothing matches here (no tree
  /// resolves, or one of them is empty).
  [[nodiscard]] std::optional<std::string> probed_tree(
      const std::vector<query::Predicate>& predicates, net::SiteId site) const;

  std::vector<std::string> site_names_;
  std::vector<core::TreeSpec> specs_;
  core::Taxonomy taxonomy_;
  std::vector<NodeState> nodes_;
  std::set<std::pair<net::SiteId, net::SiteId>> partitions_;  // normalized (min,max)
};

}  // namespace rbay::model
