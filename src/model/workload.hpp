#pragma once

// Randomized workload for the differential oracle.
//
// A workload is a concrete, replayable list of ops over a fixed attribute
// universe: mutations (post/remove/hide/expose, admin multicasts), faults
// (crash/recover/partition/heal — the explicit FaultSchedule kinds), and
// observations (SELECT COUNT, SELECT k with a commit/release decision,
// god-view membership and ledger audits).  The generator is seeded and
// self-contained: every op it emits is valid when emitted (it tracks its
// own crash/partition mirror), and the harness applies one skip rule —
// ops targeting a currently-crashed node are skipped — identically on sim
// and model so a shrunk sublist stays well-formed.
//
// The generator never emits `drop`/`jitter` (probabilistic delivery has
// no sequential mirror) and never crashes a gateway (the paper assumes
// reliable border routers; so does the fault injector's crash-random).

#include <cstdint>
#include <string>
#include <vector>

#include "core/naming.hpp"
#include "fault/schedule.hpp"
#include "query/sql.hpp"
#include "sim/engine.hpp"
#include "store/attribute.hpp"
#include "util/sim_time.hpp"

namespace rbay::model {

enum class OpKind {
  Post,          // node, attr, value
  Remove,        // node, attr
  Hide,          // node, attr
  Expose,        // node, attr
  AdminHide,     // site_a, canonical, attr — multicast to tree members
  AdminExpose,   // site_a, canonical, attr
  Crash,         // node (never a gateway)
  Recover,       // node
  Partition,     // site_a <-> site_b
  Heal,          // site_a <-> site_b
  Weather,       // site_a, site_b, weather_kind + params — link conditioner
  WeatherClear,  // clear all weather (the generator heals before observing)
  Count,         // origin node, query (count_only)
  CountStorm,    // origin node, query, storm copies issued concurrently —
                 // exercises probe coalescing and the answer cache
  Select,        // origin node, query, decision on the outcome
  ReleaseOlder,  // release the (slot mod live)-th still-committed outcome
  AuditMembership,
  AuditLedger,
};

/// What a Select op does with a satisfied outcome.
enum class Decision { Release, Commit, CommitLease };

struct Op {
  OpKind kind = OpKind::Post;
  std::size_t node = 0;  // mutation target / query origin
  std::string attr;
  store::AttributeValue value;
  net::SiteId site_a = 0;
  net::SiteId site_b = 0;
  std::string canonical;  // AdminHide/AdminExpose tree
  query::Query query;     // Count/Select
  Decision decision = Decision::Release;
  util::SimTime lease = util::SimTime::zero();
  std::size_t slot = 0;  // ReleaseOlder pick
  int storm = 0;         // CountStorm concurrent copies
  // Weather op parameters (mirrors fault::FaultAction's weather fields).
  fault::WeatherKind weather_kind = fault::WeatherKind::Clear;
  double w1 = 0.0;  // p_enter / dup p / reorder p / gray factor
  double w2 = 0.0;  // p_exit
  double w3 = 0.0;  // p_loss
  util::SimTime window = util::SimTime::zero();  // reorder hold window

  [[nodiscard]] std::string describe() const;
};

struct WorkloadSpec {
  std::uint64_t seed = 1;
  std::size_t sites = 3;
  std::size_t per_site = 4;
  int rounds = 4;
  int mutations_per_round = 5;
  int observations_per_round = 3;
  double intra_ms = 0.5;
  double cross_ms = 40.0;
  // Protocol knobs shared by the harness cluster and the exported
  // scenario.  The hold outlives any op (commits land instantly after the
  // outcome, never against an expired hold); the settle gap outlasts
  // heartbeat_misses * heartbeat plus aggregation propagation.
  util::SimTime aggregation = util::SimTime::millis(200);
  util::SimTime heartbeat = util::SimTime::millis(250);
  util::SimTime anycast_timeout = util::SimTime::millis(1500);
  util::SimTime site_timeout = util::SimTime::millis(1000);
  util::SimTime reservation_hold = util::SimTime::seconds(30);
  util::SimTime settle = util::SimTime::seconds(5);
  int max_attempts = 3;
  // Query-plane knobs (docs/QUERY_PLANE.md): on by default so the matrix
  // exercises coalescing and caching.  The TTL must stay well under
  // `settle` — every observation settles first, so cached entries from a
  // previous op are always expired when the next op probes, and the only
  // live hits are the ones a CountStorm provokes deliberately.  Admission
  // stays off (window 0): the model predicts every query is answered.
  util::SimTime cache_ttl = util::SimTime::millis(300);
  bool batch_probes = true;
  // Hot-tree load balancing (docs/LOAD_BALANCING.md): fan-in caps split
  // overloaded tree nodes, root-set rotation spreads probe answers across
  // serving replica holders.  Both default off; the reference model is
  // split-oblivious (aggregates must match regardless of tree shape), so
  // enabling them must not change any COUNT the oracle checks.
  int fan_in_cap = 0;
  int root_set = 0;
  // Adversarial link weather (docs/FAULT_INJECTION.md).  When on, mutation
  // rounds interleave conditioner ops — burst loss, duplication,
  // reordering, gray links, asymmetric partitions — and every round heals
  // (`weather * * clear`) before its observations: weather perturbs
  // delivery, not truth, so the sequential model ignores it and the
  // protocols must absorb it by the time the settle gap ends.  Admin
  // multicasts are suppressed while weather is active (a dropped one-shot
  // multicast is a real divergence, not a protocol bug).
  bool weather = false;
  // Engine configuration (docs/PARALLEL_ENGINE.md).  The default runs one
  // worker; the model-par matrix sets threads=4, proving protocol
  // correctness is independent of the worker count.
  sim::EngineConfig engine{};
};

struct Workload {
  WorkloadSpec spec;
  /// Initial attribute posts (applied before finalize; not shrunk).
  std::vector<Op> setup;
  /// The shrinkable body: rounds of mutations/faults then observations.
  std::vector<Op> ops;
};

/// The fixed attribute universe every workload runs over:
///   GPU=true, CPU<0.5, disk>=100 trees; has:brand existence tree;
///   taxonomy major `brand` with minor `model` linked under it.
[[nodiscard]] std::vector<core::TreeSpec> workload_tree_specs();
[[nodiscard]] core::Taxonomy workload_taxonomy();

[[nodiscard]] Workload generate_workload(const WorkloadSpec& spec);

/// "<site-name>:<site-relative-index>" for scenario export (nodes are
/// added site-major, so the mapping is positional).
[[nodiscard]] std::string site_target(const WorkloadSpec& spec, std::size_t node);
[[nodiscard]] std::string site_name_of(const WorkloadSpec& spec, std::size_t node);

}  // namespace rbay::model
