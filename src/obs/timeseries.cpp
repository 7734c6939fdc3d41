#include "obs/timeseries.hpp"

#include <cmath>

#include "obs/json.hpp"
#include "util/contract.hpp"

namespace rbay::obs {

TimeSeries::TimeSeries(sim::Engine& engine, Registry& registry, util::SimTime interval,
                       std::size_t capacity)
    : engine_(engine), registry_(registry), interval_(interval), capacity_(capacity) {
  RBAY_REQUIRE(interval_ > util::SimTime::zero(), "TimeSeries: interval must be positive");
  RBAY_REQUIRE(capacity_ > 0, "TimeSeries: capacity must be positive");
}

TimeSeries::~TimeSeries() { stop(); }

void TimeSeries::add_rule(AlertRule rule) {
  RBAY_REQUIRE(rule.op == '>' || rule.op == '<', "AlertRule: op must be '>' or '<'");
  RBAY_REQUIRE(rule.alpha > 0.0 && rule.alpha <= 1.0, "AlertRule: alpha must be in (0, 1]");
  if (rule.for_windows < 1) rule.for_windows = 1;
  RuleState state;
  state.rule = std::move(rule);
  rules_.push_back(std::move(state));
}

void TimeSeries::start() {
  if (started_) return;
  started_ = true;
  timer_ = engine_.schedule_observer_periodic(interval_, [this] { sample(); });
}

void TimeSeries::stop() {
  timer_.cancel();
  started_ = false;
}

void TimeSeries::capture_scope(const Scope& scope, std::map<std::string, std::uint64_t>& last,
                               ScopeWindow& out, bool with_gauges) {
  for (const auto& [name, c] : scope.counters()) {
    const std::uint64_t now = c.value();
    auto& prev = last[name];  // new counters start their delta from zero
    if (now > prev) out.counter_deltas[name] = now - prev;
    prev = now;
  }
  if (with_gauges) {
    for (const auto& [name, g] : scope.gauges()) out.gauges[name] = g.value();
  }
  for (const auto& [name, h] : scope.latencies()) {
    if (h.count() == 0) continue;
    LatencyPoint pt;
    pt.count = h.count();
    pt.p50_us = h.percentile_us(50);
    pt.p99_us = h.percentile_us(99);
    pt.max_us = h.max_us();
    out.latencies[name] = pt;
  }
}

void TimeSeries::sample() {
  Window window;
  window.at = engine_.now();
  capture_scope(registry_.fed(), last_fed_counters_, window.fed, /*with_gauges=*/true);
  for (const auto& [site_id, scope] : registry_.sites()) {
    ScopeWindow sw;
    capture_scope(scope, last_site_counters_[site_id], sw, /*with_gauges=*/false);
    if (!sw.empty()) window.sites.emplace(site_id, std::move(sw));
  }
  evaluate_rules(window);
  windows_.push_back(std::move(window));
  while (windows_.size() > capacity_) {
    windows_.pop_front();
    ++dropped_windows_;
  }
}

void TimeSeries::evaluate_rules(const Window& window) {
  for (auto& state : rules_) {
    const AlertRule& rule = state.rule;
    double sample_value = 0.0;
    if (rule.is_gauge) {
      // Gauges read live (the window only records federation gauges, and a
      // rule may watch one that the current window has not captured yet).
      if (const Gauge* g = registry_.fed().find_gauge(rule.metric)) {
        sample_value = static_cast<double>(g->value());
      }
    } else {
      const auto it = window.fed.counter_deltas.find(rule.metric);
      sample_value = it == window.fed.counter_deltas.end()
                         ? 0.0
                         : static_cast<double>(it->second);
    }
    if (!state.primed) {
      state.value = sample_value;
      state.primed = true;
    } else {
      state.value = rule.alpha * sample_value + (1.0 - rule.alpha) * state.value;
    }
    const bool firing =
        rule.op == '>' ? state.value > rule.threshold : state.value < rule.threshold;
    if (firing) {
      ++state.firing_streak;
      state.quiet_streak = 0;
      if (!state.open && state.firing_streak >= rule.for_windows) {
        transition(state, /*open=*/true, window.at);
      }
    } else {
      ++state.quiet_streak;
      state.firing_streak = 0;
      if (state.open && state.quiet_streak >= rule.for_windows) {
        transition(state, /*open=*/false, window.at);
      }
    }
  }
}

void TimeSeries::transition(RuleState& state, bool open, util::SimTime at) {
  state.open = open;
  open_alerts_ += open ? 1 : -1;

  AlertEvent ev;
  ev.rule = state.rule.name;
  ev.open = open;
  ev.at = at;
  ev.value_milli = static_cast<std::int64_t>(std::llround(state.value * 1000.0));
  alert_log_.push_back(ev);

  // The only registry writes the sampler ever makes: they happen exclusively
  // on an alert transition, so an alert-free run keeps its snapshot
  // byte-identical to an unsampled one.
  Scope& fed = registry_.fed();
  (open ? fed.counter<"obs.alerts.opened">() : fed.counter<"obs.alerts.closed">()).inc();
  fed.gauge<"obs.alerts.open">().set(static_cast<std::int64_t>(open_alerts_));
  const std::string event = std::string(open ? "alert.open:" : "alert.close:") + state.rule.name;
  registry_.causal().local(/*site=*/0, /*endpoint=*/0, intern_name(event).name->c_str(), at);
}

std::string TimeSeries::to_json() const {
  std::string out;
  out.reserve(8192);
  out += '{';
  json::append_key(out, "interval_us");
  json::append_int(out, interval_.as_micros());
  out += ',';
  json::append_key(out, "windows");
  out += '[';
  {
    json::Comma wcomma;
    for (const Window& w : windows_) {
      wcomma.next(out);
      out += '{';
      json::append_key(out, "t_us");
      json::append_int(out, w.at.as_micros());

      const auto write_scope = [&out](const ScopeWindow& sw) {
        out += '{';
        json::Comma section;
        if (!sw.counter_deltas.empty()) {
          section.next(out);
          json::append_key(out, "counters");
          out += '{';
          json::Comma comma;
          for (const auto& [name, delta] : sw.counter_deltas) {
            comma.next(out);
            json::append_key(out, name);
            json::append_uint(out, delta);
          }
          out += '}';
        }
        if (!sw.gauges.empty()) {
          section.next(out);
          json::append_key(out, "gauges");
          out += '{';
          json::Comma comma;
          for (const auto& [name, value] : sw.gauges) {
            comma.next(out);
            json::append_key(out, name);
            json::append_int(out, value);
          }
          out += '}';
        }
        if (!sw.latencies.empty()) {
          section.next(out);
          json::append_key(out, "latencies");
          out += '{';
          json::Comma comma;
          for (const auto& [name, pt] : sw.latencies) {
            comma.next(out);
            json::append_key(out, name);
            out += '{';
            json::append_key(out, "count");
            json::append_uint(out, pt.count);
            out += ',';
            json::append_key(out, "p50_us");
            json::append_int(out, pt.p50_us);
            out += ',';
            json::append_key(out, "p99_us");
            json::append_int(out, pt.p99_us);
            out += ',';
            json::append_key(out, "max_us");
            json::append_int(out, pt.max_us);
            out += '}';
          }
          out += '}';
        }
        out += '}';
      };

      if (!w.fed.empty()) {
        out += ',';
        json::append_key(out, "federation");
        write_scope(w.fed);
      }
      if (!w.sites.empty()) {
        out += ',';
        json::append_key(out, "sites");
        out += '{';
        json::Comma comma;
        for (const auto& [site_id, sw] : w.sites) {
          comma.next(out);
          json::append_key(out, std::to_string(site_id));
          write_scope(sw);
        }
        out += '}';
      }
      out += '}';
    }
  }
  out += ']';
  out += ',';
  json::append_key(out, "alerts");
  out += '[';
  {
    json::Comma comma;
    for (const AlertEvent& ev : alert_log_) {
      comma.next(out);
      out += '{';
      json::append_key(out, "rule");
      json::append_string(out, ev.rule);
      out += ',';
      json::append_key(out, "open");
      out += ev.open ? "true" : "false";
      out += ',';
      json::append_key(out, "t_us");
      json::append_int(out, ev.at.as_micros());
      out += ',';
      json::append_key(out, "value_milli");
      json::append_int(out, ev.value_milli);
      out += '}';
    }
  }
  out += ']';
  out += ',';
  json::append_key(out, "alerts_open");
  json::append_uint(out, open_alerts_);
  out += ',';
  json::append_key(out, "dropped_windows");
  json::append_uint(out, dropped_windows_);
  out += '}';
  out += '\n';
  return out;
}

}  // namespace rbay::obs
