#pragma once

// Online invariant watchdog: the post-quiescence checkers of
// invariants.hpp, run *during* the run (docs/HEALTH.md).
//
// A Watchdog polls a configurable subset of the checkers on a sim-time
// period (riding Engine::schedule_observer_periodic so its polls never
// show up in the engine's own metrics) and keeps one *episode* per
// invariant name: the first poll that reports a violation opens the
// episode, the first later poll that reports none closes it.  Transient
// violations — a crashed root mid-failover, a prune racing a rejoin —
// are therefore tolerated and *measured* instead of failed: every closed
// episode records its open→close interval into the `watchdog.time_to_heal`
// histogram (the federation's observed MTTR), and only an episode that is
// still open when the caller finalizes is treated as a real failure and
// shipped with a flight-recorder dump.
//
// Registry writes happen exclusively on episode transitions (the same
// lazy-metric rule as TimeSeries alerts): `watchdog.violations_opened` /
// `watchdog.violations_closed` counters, the `watchdog.violations_open`
// gauge, the MTTR histogram, and `watchdog.open:<invariant>` /
// `watchdog.close:<invariant>` causal events.  A violation-free run keeps
// the registry snapshot byte-identical to an unwatched one.
//
// The checkers are god-view and read-only, so polling them mid-run cannot
// perturb the simulation — the one sharp edge is that a poll *landing*
// between a crash and the heal it triggers is exactly the point: that is
// what makes the open→close interval a time-to-heal measurement.

#include <cstdint>
#include <string>
#include <vector>

#include "fault/invariants.hpp"
#include "util/result.hpp"
#include "util/sim_time.hpp"

namespace rbay::fault {

class Watchdog {
 public:
  /// Parses a checker-name list ("trees children replicas ...", same names
  /// as the scenario `check-invariants` directive; empty list = all
  /// cluster-level checkers).  Errors on an unknown name.
  static util::Result<std::vector<std::string>> parse_checks(
      const std::vector<std::string>& names);

  Watchdog(core::RBayCluster& cluster, util::SimTime period,
           const std::vector<std::string>& checks = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Starts the periodic poll (idempotent).
  void start();
  void stop();

  /// Runs the configured checkers once, right now, and applies the episode
  /// transitions.  The timer calls this; tests may force extra polls.
  void poll();

  /// One violation episode, keyed by invariant name.
  struct Episode {
    std::string invariant;
    util::SimTime opened = util::SimTime::zero();
    util::SimTime closed = util::SimTime::zero();  // valid when healed
    bool healed = false;
    std::string detail;                 // latest violation detail seen
    std::vector<std::size_t> nodes;     // latest nodes named (for dumps)
  };

  /// Final poll + verdict: closes bookkeeping and returns an error listing
  /// every still-open episode (with a flight-recorder dump) when any
  /// violation never healed.  Call after the run settles; the watchdog
  /// keeps polling only until stop() / destruction.
  [[nodiscard]] util::Result<void> finalize();

  [[nodiscard]] util::SimTime period() const { return period_; }
  [[nodiscard]] const std::vector<Episode>& episodes() const { return episodes_; }
  [[nodiscard]] std::size_t open_count() const { return open_count_; }
  [[nodiscard]] std::uint64_t polls() const { return polls_; }
  [[nodiscard]] std::uint64_t opened_total() const { return opened_total_; }
  [[nodiscard]] std::uint64_t healed_total() const { return healed_total_; }

 private:
  Episode* find_open(const std::string& invariant);
  void open_episode(const Violation& violation, util::SimTime at);
  void close_episode(Episode& episode, util::SimTime at);

  core::RBayCluster& cluster_;
  util::SimTime period_;
  std::vector<const NamedChecker*> checkers_;
  sim::Timer timer_;
  bool started_ = false;

  std::vector<Episode> episodes_;  // append-only, in open order
  std::size_t open_count_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t opened_total_ = 0;
  std::uint64_t healed_total_ = 0;
};

}  // namespace rbay::fault
