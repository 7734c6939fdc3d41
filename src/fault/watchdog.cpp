#include "fault/watchdog.hpp"

#include "core/cluster.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/contract.hpp"

namespace rbay::fault {

namespace {

constexpr const char* kKnownChecks[] = {"trees",    "children", "aggregates", "reservations",
                                        "replicas", "fan-in",   "waiters",    "pastry"};

bool known_check(const std::string& name) {
  for (const char* k : kKnownChecks) {
    if (name == k) return true;
  }
  return false;
}

}  // namespace

util::Result<std::vector<std::string>> Watchdog::parse_checks(
    const std::vector<std::string>& names) {
  std::vector<std::string> checks;
  for (const auto& name : names) {
    if (!known_check(name)) {
      return util::make_error(
          "unknown checker '" + name +
          "' (trees|children|aggregates|reservations|replicas|fan-in|waiters|pastry)");
    }
    checks.push_back(name);
  }
  return checks;
}

Watchdog::Watchdog(core::RBayCluster& cluster, util::SimTime period,
                   std::vector<std::string> checks)
    : cluster_(cluster), period_(period), checks_(std::move(checks)) {
  RBAY_REQUIRE(period_ > util::SimTime::zero(), "Watchdog: period must be positive");
  for (const auto& name : checks_) {
    RBAY_REQUIRE(known_check(name), "Watchdog: unknown checker (use parse_checks)");
  }
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::start() {
  if (started_) return;
  started_ = true;
  timer_ = cluster_.engine().schedule_observer_periodic(period_, [this] { poll(); });
}

void Watchdog::stop() {
  timer_.cancel();
  started_ = false;
}

InvariantReport Watchdog::run_checks() {
  if (checks_.empty()) return check_all(cluster_);
  InvariantReport report;
  for (const auto& which : checks_) {
    if (which == "trees") {
      report.merge(check_tree_reachability(cluster_));
    } else if (which == "children") {
      report.merge(check_child_consistency(cluster_));
    } else if (which == "aggregates") {
      report.merge(check_aggregates(cluster_));
    } else if (which == "reservations") {
      report.merge(check_reservations(cluster_));
    } else if (which == "replicas") {
      report.merge(check_replicas(cluster_));
    } else if (which == "fan-in") {
      report.merge(check_fan_in(cluster_));
    } else if (which == "waiters") {
      report.merge(check_waiters(cluster_));
    } else if (which == "pastry") {
      report.merge(check_pastry(cluster_.overlay()));
    }
  }
  return report;
}

Watchdog::Episode* Watchdog::find_open(const std::string& invariant) {
  for (auto& episode : episodes_) {
    if (!episode.healed && episode.invariant == invariant) return &episode;
  }
  return nullptr;
}

void Watchdog::poll() {
  ++polls_;
  const InvariantReport report = run_checks();
  const util::SimTime at = cluster_.engine().now();

  // One episode per invariant name: a report with three tree-reachability
  // violations is one open "tree-reachability" episode whose detail tracks
  // the latest evidence — MTTR is per failure mode, not per broken link.
  for (const Violation& v : report.violations) {
    if (Episode* episode = find_open(v.invariant)) {
      episode->detail = v.detail;
      if (!v.nodes.empty()) episode->nodes = v.nodes;
    } else {
      open_episode(v, at);
    }
  }
  for (auto& episode : episodes_) {
    if (episode.healed) continue;
    bool still_violated = false;
    for (const Violation& v : report.violations) {
      if (v.invariant == episode.invariant) {
        still_violated = true;
        break;
      }
    }
    if (!still_violated) close_episode(episode, at);
  }
}

void Watchdog::open_episode(const Violation& violation, util::SimTime at) {
  Episode episode;
  episode.invariant = violation.invariant;
  episode.opened = at;
  episode.detail = violation.detail;
  episode.nodes = violation.nodes;
  episodes_.push_back(std::move(episode));
  ++open_count_;
  ++opened_total_;

  // Lazy by construction: a violation-free run never creates watchdog.*
  // metrics, keeping the snapshot identical to an unwatched run.
  if (obs::Registry* reg = cluster_.metrics()) {
    obs::Scope& fed = reg->fed();
    fed.counter<"watchdog.violations_opened">().inc();
    fed.gauge<"watchdog.violations_open">().set(static_cast<std::int64_t>(open_count_));
    const std::string what = "watchdog.open:" + violation.invariant;
    reg->causal().local(/*site=*/0, /*endpoint=*/0, what.c_str(), at);
  }
}

void Watchdog::close_episode(Episode& episode, util::SimTime at) {
  episode.healed = true;
  episode.closed = at;
  --open_count_;
  ++healed_total_;

  if (obs::Registry* reg = cluster_.metrics()) {
    obs::Scope& fed = reg->fed();
    fed.counter<"watchdog.violations_closed">().inc();
    fed.gauge<"watchdog.violations_open">().set(static_cast<std::int64_t>(open_count_));
    fed.latency<"watchdog.time_to_heal">().add(episode.closed - episode.opened);
    const std::string what = "watchdog.close:" + episode.invariant;
    reg->causal().local(/*site=*/0, /*endpoint=*/0, what.c_str(), at);
  }
}

util::Result<void> Watchdog::finalize() {
  poll();  // final observation at the settled state
  if (open_count_ == 0) return {};

  InvariantReport unhealed;
  std::string msg = "watchdog: " + std::to_string(open_count_) +
                    " violation(s) never healed:\n";
  for (const auto& episode : episodes_) {
    if (episode.healed) continue;
    msg += "  [" + episode.invariant +
           "] open since t=" + std::to_string(episode.opened.as_micros()) +
           "us: " + episode.detail + "\n";
    unhealed.add(episode.invariant, episode.detail, episode.nodes);
  }
  msg += failure_dump(cluster_, unhealed);
  return util::make_error(std::move(msg));
}

}  // namespace rbay::fault
