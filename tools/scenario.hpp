#pragma once

// Scenario DSL for the rbay_sim tool.
//
// A scenario is a line-oriented script that builds a federation, drives
// virtual time, and issues queries/admin actions — everything the public
// API offers, without writing C++.  Example:
//
//   topology ec2
//   seed 7
//   tree GPU = true
//   nodes Virginia 20
//   nodes Tokyo 20
//   post * GPU true
//   handler Virginia GPU <<EOF
//   function onGet(caller, payload)
//     if payload == "sesame" then return true end
//     return nil
//   end
//   EOF
//   finalize
//   run 2s
//   query Tokyo SELECT 3 FROM * WHERE GPU = true WITH "sesame"
//   expect satisfied
//   stats
//
// Directives (a <target> is `*`, a site name, or `<site>:<i>` addressing
// the site's i-th node — the form counterexample exports use):
//   topology ec2 | single | uniform <sites> <intra_ms> <cross_ms>
//   seed N | aggregation MS | heartbeat MS | max-attempts N
//   site-timeout MS | reservation-hold MS
//   admission-window N [queue]     in-flight query budget (+FIFO backlog)
//   cache-ttl MS                   COUNT/size answer-cache TTL (0 = off)
//   batch-probes on|off            coalesce concurrent same-tree probes
//   tree <attr> <op> <literal>      register a federation tree
//   tree-exists <attr>              existence tree (hybrid naming major)
//   taxonomy-major <attr> | taxonomy-link <attr> <parent>
//   nodes <site> <count>            add nodes (before finalize)
//   post <target> <attr> <literal>  set an attribute on every node there
//   remove <target> <attr>          drop an attribute (leaves its trees)
//   handler <target> <attr> <<EOF ... EOF   attach AAL policy
//   monitor <target> <attr> walk <init> <min> <max> <step> <interval_ms>
//   finalize                        build the federation
//   run <duration>                  advance virtual time (e.g. 500ms, 2s)
//   query <site[:i]> <SQL...>       run a query from a node of that site
//   query-storm <n> <site[:i]> <SQL...>  issue n copies concurrently from
//                                   one node (checked with storm-* expects)
//   release | commit [lease]        act on the last query's reservations
//   use-query <n>                   re-select the n-th query (1-based) so
//                                   release/commit target an older outcome
//   admin-deliver <site> <tree-canonical> <attr> <payload>
//   admin-hide <site> <tree-canonical> <attr> | admin-expose ...
//   hide <target> <attr> | expose <target> <attr>
//   fail <site> <i> | recover <site> <i>
//   fault-schedule <<EOF ... EOF     arm a timed fault script (after
//                                    finalize; offsets relative to now —
//                                    see docs/FAULT_INJECTION.md)
//   timeseries <interval_ms> [cap]   sample the registry every interval
//                                    into a ring of [cap] windows (before
//                                    'nodes'; implies metrics — see
//                                    docs/HEALTH.md)
//   alert <name> counter|gauge <metric> <op> <threshold> [alpha A] [for N]
//                                    EWMA/threshold alert rule on the
//                                    federation scope (needs timeseries)
//   watchdog <period_ms> [checker...]  run invariant checkers periodically
//                                    during the run (after finalize);
//                                    violations that never heal fail the
//                                    scenario at the end, healed ones are
//                                    recorded as watchdog.time_to_heal
//   health-publish <interval_ms> [queue-depth N]
//                                    start the rbay.health.* self-
//                                    publication round on every live node
//   check-invariants [checker...]    run post-convergence invariant
//                                    checkers (trees children aggregates
//                                    reservations pastry; default: all);
//                                    violations fail the scenario
//   expect satisfied | expect denied | expect nodes N | expect count N
//   expect stale | fresh | shed | cached | staleness-le MS
//   expect storm-satisfied N | storm-shed N | storm-count N
//   expect storm-staleness-le MS
//   expect metric <name> <op> <value>  compare a federation counter/gauge
//                                    (missing metrics read as 0)
//   expect health-count overloaded|healthy  last COUNT answer equals the
//                                    health publisher's god-view ground
//                                    truth
//   print <text...> | stats
//
// `expect` failures make run() return an error — scenarios double as
// executable integration tests.

#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "util/result.hpp"

namespace rbay::tools {

/// One parsed directive (kept simple: keyword + raw arguments + optional
/// heredoc body).
struct Directive {
  int line = 0;
  std::string keyword;
  std::vector<std::string> args;
  std::string raw_tail;  // everything after the keyword, unsplit (for SQL)
  std::string heredoc;   // body of a <<EOF ... EOF block
};

/// Parses scenario text into directives (no side effects).
util::Result<std::vector<Directive>> parse_scenario(const std::string& text);

struct ScenarioReport {
  int queries = 0;
  int queries_satisfied = 0;
  int expectations = 0;
  std::vector<std::string> output;  // `print`, query results, stats lines
  std::string metrics_json;         // Registry::to_json() when metrics were on
  std::string trace_json;           // Chrome trace export when tracing was on
  std::string timeseries_json;      // TimeSeries::to_json() when sampling was on
};

struct ScenarioOptions {
  /// Attach an obs::Registry to the federation and fill
  /// ScenarioReport::metrics_json with its final snapshot.
  bool metrics = false;
  /// Export the causal log as Chrome trace-event JSON into
  /// ScenarioReport::trace_json (implies metrics).
  bool trace = false;
  /// Engine configuration (docs/PARALLEL_ENGINE.md).  The default is one
  /// worker — NOT EngineConfig::from_env() — so a scenario run never
  /// depends on the environment; the worker count never changes the
  /// transcript.  Set per run: the equivalence matrix, or rbay_sim's
  /// `--threads N` flag.
  sim::EngineConfig engine{};
};
// ScenarioReport::timeseries_json is filled whenever the scenario declares
// a `timeseries` sampler — no option needed.

/// Parses and executes a scenario.  Returns the report, or the first
/// error (parse error, API error, or failed expectation) with its line.
util::Result<ScenarioReport> run_scenario(const std::string& text,
                                          const ScenarioOptions& options = {});

}  // namespace rbay::tools
