#include "fault/injector.hpp"

#include <cmath>
#include <sstream>

namespace rbay::fault {

namespace {

util::Error arm_error(const FaultAction& a, const std::string& msg) {
  return util::make_error("fault action '" + describe(a) + "': " + msg);
}

}  // namespace

util::Result<void> FaultInjector::arm(const FaultSchedule& schedule) {
  const auto& directory = cluster_.directory();
  // Validate everything before scheduling anything: a schedule either arms
  // whole or not at all, so a typo cannot leave half a script running.
  for (const auto& a : schedule.actions) {
    switch (a.kind) {
      case ActionKind::Crash:
      case ActionKind::Recover: {
        const auto site = directory.site_by_name(a.site_a);
        if (!site.has_value()) return arm_error(a, "unknown site '" + a.site_a + "'");
        const auto members = cluster_.nodes_in_site(*site);
        if (static_cast<std::size_t>(a.index) >= members.size()) {
          return arm_error(a, "site has only " + std::to_string(members.size()) + " nodes");
        }
        break;
      }
      case ActionKind::Partition:
      case ActionKind::Heal: {
        if (!directory.site_by_name(a.site_a).has_value()) {
          return arm_error(a, "unknown site '" + a.site_a + "'");
        }
        if (!directory.site_by_name(a.site_b).has_value()) {
          return arm_error(a, "unknown site '" + a.site_b + "'");
        }
        break;
      }
      case ActionKind::Weather: {
        if (a.site_a == "*") break;  // parser guarantees "* * clear"
        if (!directory.site_by_name(a.site_a).has_value()) {
          return arm_error(a, "unknown site '" + a.site_a + "'");
        }
        if (!directory.site_by_name(a.site_b).has_value()) {
          return arm_error(a, "unknown site '" + a.site_b + "'");
        }
        break;
      }
      case ActionKind::CrashRandom:
      case ActionKind::RecoverAll:
      case ActionKind::HealAll:
      case ActionKind::Drop:
      case ActionKind::Jitter:
        break;
    }
  }
  for (const auto& a : schedule.actions) {
    timers_.push_back(
        cluster_.engine().schedule_background(a.at, [this, a] { apply(a); }));
  }
  return {};
}

void FaultInjector::cancel() {
  for (auto& t : timers_) t.cancel();
  timers_.clear();
}

std::string FaultInjector::log_text() const {
  std::ostringstream out;
  for (const auto& line : log_) out << line << "\n";
  return out.str();
}

bool FaultInjector::is_gateway(std::size_t node_index) const {
  const auto& id = cluster_.overlay().ref(node_index).id;
  for (const auto& gw : cluster_.directory().gateways) {
    if (gw.id == id) return true;
  }
  return false;
}

void FaultInjector::note(const std::string& what) {
  std::ostringstream out;
  out << "t=" << cluster_.engine().now().as_millis() << "ms " << what;
  log_.push_back(out.str());
}

void FaultInjector::crash(std::size_t node_index) {
  auto& overlay = cluster_.overlay();
  if (overlay.is_failed(node_index)) {
    note("crash node " + std::to_string(node_index) + " (already down, no-op)");
    return;
  }
  overlay.fail_node(node_index);
  ++stats_.crashes;
  if (auto* m = cluster_.metrics()) m->fed().counter<"fault.crashes">().inc();
  note("crash node " + std::to_string(node_index) + " (" +
       overlay.ref(node_index).id.to_hex().substr(0, 8) + ")");
}

void FaultInjector::recover(std::size_t node_index) {
  auto& overlay = cluster_.overlay();
  if (!overlay.is_failed(node_index)) {
    note("recover node " + std::to_string(node_index) + " (already up, no-op)");
    return;
  }
  overlay.recover_node(node_index);
  // A recovered node re-joins every tree its attributes still satisfy —
  // the node-restart path, not a fresh node.
  cluster_.node(node_index).reevaluate_subscriptions();
  ++stats_.recoveries;
  if (auto* m = cluster_.metrics()) m->fed().counter<"fault.recoveries">().inc();
  note("recover node " + std::to_string(node_index));
}

void FaultInjector::apply(const FaultAction& a) {
  const auto& directory = cluster_.directory();
  auto& network = cluster_.network();
  std::vector<std::size_t> victims;
  switch (a.kind) {
    case ActionKind::Crash:
    case ActionKind::Recover: {
      const auto site = directory.site_by_name(a.site_a);
      const auto members = cluster_.nodes_in_site(*site);
      const auto idx = members.at(static_cast<std::size_t>(a.index));
      if (a.kind == ActionKind::Crash) {
        crash(idx);
      } else {
        recover(idx);
      }
      victims.push_back(idx);
      break;
    }
    case ActionKind::CrashRandom: {
      std::vector<std::size_t> pool;
      for (std::size_t i = 0; i < cluster_.size(); ++i) {
        if (!cluster_.overlay().is_failed(i) && !is_gateway(i)) pool.push_back(i);
      }
      auto count = static_cast<std::size_t>(
          std::ceil(a.value * static_cast<double>(cluster_.size())));
      count = std::min(count, pool.size());
      note("crash-random " + std::to_string(a.value) + " -> " + std::to_string(count) +
           " victims");
      auto& rng = cluster_.engine().rng();
      for (std::size_t k = 0; k < count; ++k) {
        const auto pick = rng.uniform(pool.size());
        crash(pool[pick]);
        victims.push_back(pool[pick]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      break;
    }
    case ActionKind::RecoverAll: {
      for (std::size_t i = 0; i < cluster_.size(); ++i) {
        if (cluster_.overlay().is_failed(i)) {
          recover(i);
          victims.push_back(i);
        }
      }
      break;
    }
    case ActionKind::Partition:
    case ActionKind::Heal: {
      const auto sa = *directory.site_by_name(a.site_a);
      const auto sb = *directory.site_by_name(a.site_b);
      const bool on = a.kind == ActionKind::Partition;
      network.set_partitioned(sa, sb, on);
      (on ? stats_.partitions : stats_.heals) += 1;
      if (auto* m = cluster_.metrics()) {
        (on ? m->fed().counter<"fault.partitions">() : m->fed().counter<"fault.heals">()).inc();
      }
      note(std::string(on ? "partition " : "heal ") + a.site_a + " <-> " + a.site_b);
      break;
    }
    case ActionKind::HealAll: {
      const auto sites = network.topology().site_count();
      for (net::SiteId x = 0; x < sites; ++x) {
        for (net::SiteId y = x + 1; y < sites; ++y) network.set_partitioned(x, y, false);
      }
      ++stats_.heals;
      note("heal all partitions");
      break;
    }
    case ActionKind::Drop:
      network.set_drop_probability(a.value);
      note("drop probability -> " + std::to_string(a.value));
      break;
    case ActionKind::Jitter:
      network.set_jitter(a.value);
      note("jitter -> " + std::to_string(a.value));
      break;
    case ActionKind::Weather: {
      auto& cond = network.conditioner();
      if (a.site_a == "*") {
        cond.clear_all();
      } else {
        const auto sa = *directory.site_by_name(a.site_a);
        const auto sb = *directory.site_by_name(a.site_b);
        switch (a.weather) {
          case WeatherKind::LossBurst:
            cond.set_loss_burst(sa, sb, a.value, a.value2, a.value3);
            break;
          case WeatherKind::Duplicate:
            cond.set_duplicate(sa, sb, a.value);
            break;
          case WeatherKind::Reorder:
            cond.set_reorder(sa, sb, a.value, a.window);
            break;
          case WeatherKind::Gray:
            cond.set_gray(sa, sb, a.value);
            break;
          case WeatherKind::AsymPartition:
            cond.set_asym_partition(sa, sb, true);
            break;
          case WeatherKind::Clear:
            cond.clear(sa, sb);
            break;
        }
      }
      ++stats_.weather;
      if (auto* m = cluster_.metrics()) m->fed().counter<"fault.weather">().inc();
      // The applied log carries the full directive so a diffed transcript
      // (and the model oracle) sees exactly the weather the sim saw.
      const auto text = describe(a);
      note(text.substr(text.find("weather")));
      break;
    }
  }
  if (on_apply) on_apply(a, victims);
}

}  // namespace rbay::fault
