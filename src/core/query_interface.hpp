#pragma once

// QueryInterface: executes composite SQL queries over the federation.
//
// Implements the paper's five-step protocol (Fig. 7) per site:
//   1. probe the size of every predicate tree (empty message to the
//      TreeId roots),
//   2. roots answer with their aggregated tree sizes,
//   3. anycast a k-slot buffer into the smallest tree,
//   4. members check the remaining predicates + run onGet authorization +
//      reserve themselves + fill slots,
//   5. the interface commits or releases the reservations.
// Cross-site queries fan out in parallel to each requested site's gateway
// ("border router", §III.E).
//
// An attempt that gathers fewer than k candidates re-queries after a
// truncated exponential backoff (§III.D), up to max_attempts.  That backoff
// is the only retry a query has, and it covers every short answer: a
// conflict or onGet denial at a member, a walk that missed its deadline or
// came home short, a site whose every size probe missed or whose empty
// size came from the size table (up to cache_ttl old), and a site that
// did not answer before the site timeout.
// A site's "no" is final, and a retry cannot change it, when
//   - no predicate resolves to a tree (directly or through the taxonomy), or
//   - a probed tree's root answered on this attempt that the tree is empty.
// When every queried site gives a final no, the query ends unsatisfied at
// once.  COUNT queries read the roots' aggregates and never retry.
//
// The site timeout is armed after an attempt has dispatched to every site,
// and only if the attempt still waits for one.  An attempt answered inside
// its own dispatch (a local COUNT whose sizes all come from the size table)
// leaves no timer behind in the event queue.

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/messages.hpp"
#include "core/naming.hpp"
#include "core/query_config.hpp"
#include "obs/context.hpp"
#include "qplane/admission.hpp"
#include "qplane/tree_sizes.hpp"
#include "pastry/node.hpp"
#include "query/reservation.hpp"
#include "query/sql.hpp"

namespace rbay::core {

class RBayNode;

/// Final result of a composite query.
struct QueryOutcome {
  bool satisfied = false;
  std::string error;  // non-empty on planner-level failure
  query::QueryId query_id;
  std::vector<Candidate> nodes;  // reserved candidates (k best)
  int attempts = 0;
  int sites_queried = 0;
  int sites_timed_out = 0;
  int members_visited = 0;
  /// Sites whose gateway reply (or local execution) arrived before the
  /// site timeout on the final attempt, ascending.  A partitioned or
  /// crashed site is absent here and counted in `sites_timed_out` — the
  /// differential oracle keys its per-site predictions on this set.
  std::vector<net::SiteId> sites_answered;
  /// SELECT COUNT result: matching members across the queried sites, read
  /// from the tree roots' aggregates (no anycast, no reservations).
  double count = 0.0;
  /// Degraded read: at least one answering tree root was a freshly
  /// promoted replica serving a pre-failover snapshot.  `staleness` is the
  /// oldest such snapshot's age (bounded by the root's max_staleness).
  bool stale = false;
  util::SimTime staleness = util::SimTime::zero();
  /// Stale because (at least) one probe was answered from the query-plane
  /// answer cache; `staleness` is then bounded by the cache TTL.
  bool cached = false;
  /// Shed by admission control: the in-flight window and backlog were both
  /// full.  No protocol work was done; `nodes`/`count` are empty.
  bool shed = false;
  util::SimTime started = util::SimTime::zero();
  util::SimTime finished = util::SimTime::zero();

  [[nodiscard]] util::SimTime latency() const { return finished - started; }
};

class QueryInterface final : public pastry::PastryApp {
 public:
  QueryInterface(RBayNode& owner, QueryConfig config = {});

  using Callback = std::function<void(const QueryOutcome&)>;

  /// Parses and executes SQL text ("each query interface works
  /// independently to look up resources for its nearby customers").
  void execute_sql(std::string_view sql, Callback callback);

  void execute(query::Query query, Callback callback);

  /// Customer decision on the outcome's reservations.  A non-zero `lease`
  /// bounds the tenancy; expired leases return nodes to the pool unless
  /// renewed.
  void commit(const QueryOutcome& outcome, util::SimTime lease = util::SimTime::zero());
  void renew(const QueryOutcome& outcome, util::SimTime lease);
  void release(const QueryOutcome& outcome);

  // PastryApp (direct messages: site queries, commits, releases).
  void deliver(const pastry::NodeId& key, pastry::AppMessage& msg, int hops) override;
  void receive(const pastry::NodeRef& from, pastry::AppMessage& msg) override;

  static constexpr const char* kAppName = "rbay.query";

  /// Health introspection (rbay.health.* publication, docs/HEALTH.md):
  /// admission window state and size-table hit counters, read-only.
  [[nodiscard]] const qplane::AdmissionController& admission() const { return admission_; }
  [[nodiscard]] const qplane::TreeSizes& tree_sizes() const { return tree_sizes_; }

 private:
  struct Pending {
    query::Query query;
    Callback callback;
    QueryOutcome outcome;
    int waiting_sites = 0;
    /// Sites whose answer this attempt was SiteResult::trees_empty.
    int empty_sites = 0;
    double count_total = 0.0;
    std::vector<Candidate> gathered;
    sim::Timer timeout;
    /// Causal re-attachment point for continuations that fire outside any
    /// delivery (site timeout, backoff retry).  Starts at the trace root;
    /// a backoff retry moves it to the "query.backoff_retry" event so the
    /// critical path chains through the failed attempt.
    obs::TraceContext ctx;
  };

  /// Sends each node a ReleaseMsg for the reservation `query_id` took in
  /// attempt `attempt`; a node a later attempt reserved again ignores it.
  void send_releases(const query::QueryId& query_id, int attempt,
                     std::span<const Candidate> nodes);

  /// Releases reservations no live attempt will commit or release: those
  /// carried by an orphaned anycast result or by a site answer that
  /// arrived after its query finished or moved on to a later attempt.
  /// Counted in query.orphan_releases, one per ReleaseMsg sent.
  void release_orphans(const query::QueryId& query_id, int attempt,
                       const std::vector<Candidate>& candidates);

  void attempt(std::uint64_t id);
  void site_done(std::uint64_t id, SiteResult result);
  void finish_attempt(std::uint64_t id);

  /// Seals the outcome, records the query-level metrics and the trace
  /// terminus, and invokes the customer callback.
  void complete(std::map<std::uint64_t, Pending>::iterator it);

  /// Runs the 5-step protocol inside this node's own site; used both for
  /// the local part of a query and when acting as a gateway for a remote
  /// query interface.  For count-only jobs, stops after steps 1-2 (size
  /// probes) and reports the smallest tree's aggregate.
  void run_site_query(SiteJob job, std::function<void(SiteResult)> done);

  [[nodiscard]] std::vector<net::SiteId> resolve_sites(const query::Query& q,
                                                       std::string& error) const;

  /// Distinct spec indices of the trees these predicates probe, in
  /// predicate order.  A predicate without a tree of its own resolves
  /// through the taxonomy to its major's existence tree, or is skipped.
  [[nodiscard]] std::vector<std::size_t> plan_trees(
      const std::vector<query::Predicate>& predicates) const;

  /// Immediate completion for queries admission sheds (no Pending entry,
  /// no protocol work, no slot taken).
  void shed_query(const query::Query& query, Callback& callback);

  RBayNode& owner_;
  pastry::AppId app_;  // kAppName, interned
  QueryConfig config_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Pending> pending_;
  // Query-plane throughput layer (docs/QUERY_PLANE.md): window admission
  // over this interface's queries, and the per-tree size table (stored
  // root answers, coalesced probes).
  qplane::AdmissionController admission_;
  qplane::TreeSizes tree_sizes_;
};

}  // namespace rbay::core
