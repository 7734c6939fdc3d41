#include "net/network.hpp"

#include <algorithm>
#include <limits>

namespace rbay::net {

Network::Network(sim::Engine& engine, Topology topology)
    : engine_(engine), topology_(std::move(topology)) {
  const auto sites = static_cast<std::uint32_t>(topology_.site_count());
  engine_.configure_shards(sites);
  slot_stats_.assign(sites + 1, NetworkStats{});
  slot_seq_.assign(sites + 1, 0);
  update_lookahead();
  engine_.on_run_start([this] {
    // Neither the metric-cache refresh nor a flight-ring grow may happen
    // mid-window (both move memory other shards read), so both are done
    // here, with the workers guaranteed parked.
    if (metrics_.registry != engine_.metrics()) refresh_metrics();
    if (metrics_.causal != nullptr) metrics_.causal->reserve_rings(endpoints_.size());
  });
}

void Network::update_lookahead() {
  std::int64_t min_us = std::numeric_limits<std::int64_t>::max();
  for (SiteId a = 0; a < topology_.site_count(); ++a) {
    for (SiteId b = 0; b < topology_.site_count(); ++b) {
      if (a != b) min_us = std::min(min_us, topology_.one_way(a, b).as_micros());
    }
  }
  if (min_us == std::numeric_limits<std::int64_t>::max()) return;  // single site
  // The worst case send() can produce is the jitter floor of the shortest
  // cross-site link: factor = 1 - jitter at u = -1 (weather only lengthens
  // delays).  Truncation rounds the bound down — the safe direction.
  const auto floor_us = static_cast<std::int64_t>(static_cast<double>(min_us) * (1.0 - jitter_));
  RBAY_REQUIRE(floor_us >= 1,
               "Network: the engine needs a positive cross-site delay floor "
               "(jitter too large for the shortest link)");
  engine_.set_cross_shard_lookahead(util::SimTime::micros(floor_us));
}

const NetworkStats& Network::stats() const {
  merged_stats_ = NetworkStats{};
  for (const NetworkStats& cell : slot_stats_) {
    merged_stats_.messages_sent += cell.messages_sent;
    merged_stats_.messages_delivered += cell.messages_delivered;
    merged_stats_.messages_dropped += cell.messages_dropped;
    merged_stats_.bytes_sent += cell.bytes_sent;
    merged_stats_.weather_dropped += cell.weather_dropped;
    merged_stats_.duplicated += cell.duplicated;
    merged_stats_.reordered += cell.reordered;
  }
  return merged_stats_;
}

std::uint64_t Network::next_send_seq() {
  // Per-slot counters, disambiguated in the low byte (kMaxExecSlots < 256):
  // unique without cross-shard coordination, and a pure function of the
  // minting shard's deterministic event sequence.
  const std::uint32_t slot = obs::exec_slot().index;
  return (slot_seq_[slot]++ << 8) | slot;
}

EndpointId Network::add_endpoint(SiteId site, Handler handler) {
  RBAY_REQUIRE(site < topology_.site_count(), "Network::add_endpoint: unknown site");
  RBAY_REQUIRE(handler != nullptr, "Network::add_endpoint: handler required");
  endpoints_.push_back(Endpoint{site, std::move(handler), false, {}});
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

util::SimTime Network::expected_delay(EndpointId a, EndpointId b) const {
  return topology_.one_way(endpoints_.at(a).site, endpoints_.at(b).site);
}

bool Network::partitioned(SiteId a, SiteId b) const {
  return std::any_of(partitions_.begin(), partitions_.end(), [&](const auto& p) {
    return (p.first == a && p.second == b) || (p.first == b && p.second == a);
  });
}

void Network::set_partitioned(SiteId a, SiteId b, bool on) {
  if (on) {
    if (!partitioned(a, b)) partitions_.emplace_back(a, b);
  } else {
    std::erase_if(partitions_, [&](const auto& p) {
      return (p.first == a && p.second == b) || (p.first == b && p.second == a);
    });
  }
}

void Network::refresh_metrics() {
  auto* registry = engine_.metrics();
  metrics_ = MetricsCache{};
  metrics_.registry = registry;
  if (registry == nullptr) return;
  auto& fed = registry->fed();
  metrics_.sent = &fed.counter("net.messages_sent");
  metrics_.delivered = &fed.counter("net.messages_delivered");
  metrics_.dropped = &fed.counter("net.messages_dropped");
  metrics_.bytes = &fed.counter("net.bytes_sent");
  metrics_.delay = &fed.latency("net.delivery_delay");
  metrics_.causal = &registry->causal();
  for (SiteId s = 0; s < topology_.site_count(); ++s) {
    metrics_.site_sent.push_back(&registry->site(s).counter("net.messages_sent"));
    metrics_.site_bytes.push_back(&registry->site(s).counter("net.bytes_sent"));
  }
}

void Network::send(EndpointId from, EndpointId to, std::unique_ptr<Payload> payload) {
  RBAY_REQUIRE(from < endpoints_.size(), "Network::send: unknown sender");
  RBAY_REQUIRE(to < endpoints_.size(), "Network::send: unknown receiver");
  RBAY_REQUIRE(payload != nullptr, "Network::send: payload required");

  if (metrics_.registry != engine_.metrics()) refresh_metrics();

  auto& src = endpoints_[from];
  NetworkStats& stats = live_stats();
  const SiteId sa = src.site;
  if (src.down) {
    // A dead node does not speak: its timers may still fire in the
    // simulation, but nothing leaves the machine.
    ++stats.messages_dropped;
    if (metrics_.dropped != nullptr) metrics_.dropped->inc();
    if (metrics_.causal != nullptr) {
      metrics_.causal->on_drop(metrics_.causal->current(), sa, from, payload->type_name(),
                               engine_.now());
    }
    return;
  }
  const std::size_t size = payload->wire_size();
  ++stats.messages_sent;
  stats.bytes_sent += size;
  ++src.stats.sent;
  src.stats.bytes_sent += size;

  const SiteId sb = endpoints_[to].site;
  if (metrics_.sent != nullptr) {
    metrics_.sent->inc();
    metrics_.bytes->inc(size);
    metrics_.site_sent[sa]->inc();
    metrics_.site_bytes[sa]->inc(size);
  }
  // Stamp the causal identity: a fresh span whose parent is whatever
  // context is ambient right now (the delivery that triggered this send).
  obs::TraceContext trace;
  if (metrics_.causal != nullptr) {
    trace = metrics_.causal->on_send(sa, from, payload->type_name(), engine_.now());
  }
  if (partitioned(sa, sb) || (drop_probability_ > 0.0 && engine_.rng().chance(drop_probability_))) {
    ++stats.messages_dropped;
    if (metrics_.dropped != nullptr) metrics_.dropped->inc();
    if (metrics_.causal != nullptr) {
      metrics_.causal->on_drop(trace, sa, from, payload->type_name(), engine_.now());
    }
    return;
  }

  // Link weather.  decide() draws from the engine RNG only for links that
  // actually have weather, so an unarmed conditioner leaves the RNG
  // sequence — and therefore same-seed snapshots — untouched.
  WeatherDecision weather;
  if (conditioner_.armed()) {
    weather = conditioner_.decide(sa, sb, engine_.rng());
    if (weather.drop) {
      ++stats.messages_dropped;
      ++stats.weather_dropped;
      if (metrics_.dropped != nullptr) metrics_.dropped->inc();
      if (metrics_.registry != nullptr) {
        lazy_counter(metrics_.weather_drops, "net.weather_drops").inc();
      }
      if (metrics_.causal != nullptr) {
        metrics_.causal->on_drop(trace, sa, from, payload->type_name(), engine_.now());
      }
      return;
    }
  }

  util::SimTime base = topology_.one_way(sa, sb);
  if (from == to) base = util::SimTime::micros(10);  // local dispatch
  if (weather.delay_factor != 1.0) {
    base = util::SimTime::micros(static_cast<std::int64_t>(
        static_cast<double>(base.as_micros()) * weather.delay_factor));
  }
  const auto jittered = [this](util::SimTime d) {
    if (jitter_ <= 0.0) return d;
    // Symmetric jitter: U(-1, 1) centers the factor at 1.0 so measured
    // latencies are unbiased estimators of the topology's nominal RTT/2.
    // (A one-sided U(0, 1) draw inflated every delay by jitter/2 on
    // average, overstating the latency figures.)
    const double u = 2.0 * engine_.rng().uniform_double() - 1.0;
    const double factor = std::max(0.0, 1.0 + jitter_ * u);
    return util::SimTime::micros(
        static_cast<std::int64_t>(static_cast<double>(d.as_micros()) * factor));
  };
  const util::SimTime delay = jittered(base) + weather.hold;
  if (weather.hold > util::SimTime::zero()) {
    ++stats.reordered;
    if (metrics_.registry != nullptr) {
      lazy_counter(metrics_.reordered, "net.reordered").inc();
    }
  }

  // std::function requires copyable callables, so the unique_ptr travels
  // inside a shared box and is moved out exactly once at delivery.
  auto box = std::make_shared<std::unique_ptr<Payload>>(std::move(payload));
  if (weather.duplicate) {
    // The copy gets its own jitter draw, its own hold, and its own seq —
    // two genuinely independent deliveries of the same bytes.  Payloads
    // that cannot deep-copy (clone_payload() == nullptr) stay singular;
    // the dup chance was already drawn, so the RNG stream is unaffected.
    if (auto copy = (*box)->clone_payload()) {
      const util::SimTime dup_delay = jittered(base) + weather.dup_hold;
      ++stats.duplicated;
      if (weather.dup_hold > util::SimTime::zero()) ++stats.reordered;
      if (metrics_.registry != nullptr) {
        lazy_counter(metrics_.duplicates, "net.duplicates").inc();
        if (weather.dup_hold > util::SimTime::zero()) {
          lazy_counter(metrics_.reordered, "net.reordered").inc();
        }
      }
      auto dup_box = std::make_shared<std::unique_ptr<Payload>>(std::move(copy));
      schedule_delivery(from, to, std::move(dup_box), size, dup_delay, trace);
    }
  }
  schedule_delivery(from, to, std::move(box), size, delay, trace);
}

void Network::schedule_delivery(EndpointId from, EndpointId to,
                                std::shared_ptr<std::unique_ptr<Payload>> box,
                                std::size_t size, util::SimTime delay,
                                obs::TraceContext trace) {
  const std::uint64_t seq = next_send_seq();
  // The delivery runs on the receiver's site shard.  Cross-site sends
  // satisfy the lookahead contract by construction — see
  // update_lookahead().
  engine_.schedule_on(engine_.shard_for_site(endpoints_[to].site), delay,
                      [this, from, to, box, size, delay, trace, seq]() {
    auto& dst = endpoints_[to];
    if (dst.down) {
      ++live_stats().messages_dropped;
      if (metrics_.dropped != nullptr) metrics_.dropped->inc();
      if (metrics_.causal != nullptr) {
        metrics_.causal->on_drop(trace, dst.site, to, (*box)->type_name(), engine_.now());
      }
      return;
    }
    ++live_stats().messages_delivered;
    ++dst.stats.received;
    dst.stats.bytes_received += size;
    if (metrics_.delivered != nullptr) {
      metrics_.delivered->inc();
      metrics_.delay->add(delay);
    }
    if (metrics_.causal != nullptr) {
      metrics_.causal->on_recv(trace, dst.site, to, (*box)->type_name(), engine_.now());
    }
    // Re-establish the message's context around the handler: every send or
    // recorded local op the handler performs becomes a child span of this
    // message.  That one rule propagates causality through pastry, scribe,
    // and the query protocol without any per-protocol plumbing.
    obs::ContextScope scope(metrics_.causal, trace);
    dst.handler(Envelope{from, to, std::move(*box), trace, seq});
  });
}

obs::Counter& Network::lazy_counter(obs::Counter*& slot, const char* name) {
  if (slot == nullptr) slot = &metrics_.registry->fed().counter(name);
  return *slot;
}

void Network::reset_stats() {
  for (auto& cell : slot_stats_) cell = NetworkStats{};
  for (auto& ep : endpoints_) ep.stats = {};
}

}  // namespace rbay::net
