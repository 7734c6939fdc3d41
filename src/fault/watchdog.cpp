#include "fault/watchdog.hpp"

#include "core/cluster.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/contract.hpp"

namespace rbay::fault {

util::Result<std::vector<std::string>> Watchdog::parse_checks(
    const std::vector<std::string>& names) {
  if (auto found = find_checkers(names); !found.ok()) return util::make_error(found.error());
  return names;
}

Watchdog::Watchdog(core::RBayCluster& cluster, util::SimTime period,
                   const std::vector<std::string>& checks)
    : cluster_(cluster), period_(period) {
  RBAY_REQUIRE(period_ > util::SimTime::zero(), "Watchdog: period must be positive");
  auto found = find_checkers(checks);
  RBAY_REQUIRE(found.ok(), "Watchdog: unknown checker (use parse_checks)");
  checkers_ = found.take();
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

Watchdog::Episode* Watchdog::find_open(const std::string& invariant) {
  for (auto& episode : episodes_) {
    if (!episode.healed && episode.invariant == invariant) return &episode;
  }
  return nullptr;
}

void Watchdog::poll() {
  ++polls_;
  const InvariantReport report = run_checkers(cluster_, checkers_);
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
    const std::string event = "watchdog.open:" + violation.invariant;
    reg->causal().local(/*site=*/0, /*endpoint=*/0, obs::intern_name(event).name->c_str(), at);
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
    const std::string event = "watchdog.close:" + episode.invariant;
    reg->causal().local(/*site=*/0, /*endpoint=*/0, obs::intern_name(event).name->c_str(), at);
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
