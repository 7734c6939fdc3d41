#pragma once

// Simulated message-passing network over the discrete-event engine.
//
// Endpoints register a delivery handler and get a dense EndpointId.  send()
// samples a one-way delay from the topology (RTT/2 × jitter) and schedules
// delivery.  The network also does byte accounting (for the bandwidth
// ablations) and supports failure injection: endpoint down/up, message drop
// probability, and site partitions.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/conditioner.hpp"
#include "net/topology.hpp"
#include "obs/exec_slot.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/contract.hpp"

namespace rbay::net {

using EndpointId = std::uint32_t;
constexpr EndpointId kInvalidEndpoint = static_cast<EndpointId>(-1);

/// Polymorphic message payload.  Concrete protocol messages (Pastry JOIN,
/// Scribe ANYCAST, query probes, ...) derive from this and report their
/// approximate wire size for bandwidth accounting.
struct Payload {
  virtual ~Payload() = default;
  [[nodiscard]] virtual std::size_t wire_size() const = 0;
  [[nodiscard]] virtual const char* type_name() const = 0;
  /// Deep copy, used only by the link conditioner to deliver a message
  /// twice (each delivery hands exclusive ownership to its handler).
  /// Returning nullptr — the default — marks the payload non-clonable, and
  /// the conditioner simply will not duplicate it.
  [[nodiscard]] virtual std::unique_ptr<Payload> clone_payload() const { return nullptr; }
};

struct Envelope {
  EndpointId from = kInvalidEndpoint;
  EndpointId to = kInvalidEndpoint;
  std::unique_ptr<Payload> payload;
  /// Causal identity stamped at send time (inactive when tracing is off or
  /// no trace was ambient).  The network re-establishes it as the ambient
  /// context around the handler, so most receivers never read it directly.
  obs::TraceContext trace;
  /// Per-delivery sequence stamped by the network: the sending slot's
  /// counter with the slot in the low byte, so it is unique without
  /// cross-shard coordination.  A slot mints seqs in schedule order, so
  /// same-slot deliveries that collapse onto one sim-time instant (held,
  /// reordered, or duplicated copies) drain in ascending `seq`, and
  /// same-seed runs stay byte-identical under the conditioner.
  std::uint64_t seq = 0;
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  // Link-conditioner weather (subsets of the totals above).
  std::uint64_t weather_dropped = 0;  // blackholed or burst-lost
  std::uint64_t duplicated = 0;       // extra copies scheduled
  std::uint64_t reordered = 0;        // deliveries held within the window
};

struct EndpointStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class Network {
 public:
  using Handler = std::function<void(Envelope)>;

  /// Construction also fixes the engine's shard topology (one shard per
  /// site), computes the conservative cross-shard lookahead from
  /// the minimum cross-site one-way delay, and registers a run-start hook
  /// that refreshes metric caches and pre-sizes the causal flight rings —
  /// none of which may happen mid-window.
  Network(sim::Engine& engine, Topology topology);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers an endpoint at `site`; the handler runs on each delivery.
  EndpointId add_endpoint(SiteId site, Handler handler);

  [[nodiscard]] SiteId site_of(EndpointId ep) const { return endpoints_.at(ep).site; }
  [[nodiscard]] std::size_t endpoint_count() const { return endpoints_.size(); }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Sends `payload` from → to; delivery is scheduled after the sampled
  /// one-way delay.  Loopback (from == to) is delivered after a tiny local
  /// dispatch delay.
  void send(EndpointId from, EndpointId to, std::unique_ptr<Payload> payload);

  /// Expected one-way delay between two endpoints (no jitter) — used by
  /// proximity-aware routing decisions.
  [[nodiscard]] util::SimTime expected_delay(EndpointId a, EndpointId b) const;

  // --- failure injection -------------------------------------------------
  void set_endpoint_down(EndpointId ep, bool down) { endpoints_.at(ep).down = down; }
  [[nodiscard]] bool is_down(EndpointId ep) const { return endpoints_.at(ep).down; }
  void set_drop_probability(double p) {
    RBAY_REQUIRE(p >= 0.0 && p <= 1.0, "drop probability must be in [0, 1]");
    drop_probability_ = p;
  }
  /// Severs (or heals) all links between two sites.
  void set_partitioned(SiteId a, SiteId b, bool partitioned);

  /// Adversarial per-link weather: burst loss, duplication, reordering,
  /// gray links, asymmetric partitions (see net/conditioner.hpp).  send()
  /// consults it only while any link has weather configured.
  [[nodiscard]] LinkConditioner& conditioner() { return conditioner_; }
  [[nodiscard]] const LinkConditioner& conditioner() const { return conditioner_; }

  /// Multiplies every sampled delay by `1 + jitter × U(-1,1)` — symmetric
  /// around the nominal delay (clamped at zero), so measured latencies are
  /// unbiased with respect to the topology's RTT matrix.
  void set_jitter(double jitter) {
    RBAY_REQUIRE(jitter >= 0.0, "jitter must be non-negative");
    jitter_ = jitter;
    update_lookahead();  // jitter shrinks the guaranteed minimum delay
  }

  /// Aggregate traffic counters, merged across the per-shard cells at call
  /// time — snapshot/barrier use only.
  [[nodiscard]] const NetworkStats& stats() const;
  [[nodiscard]] const EndpointStats& endpoint_stats(EndpointId ep) const {
    return endpoints_.at(ep).stats;
  }
  void reset_stats();

 private:
  struct Endpoint {
    SiteId site;
    Handler handler;
    bool down = false;
    EndpointStats stats;
  };

  [[nodiscard]] bool partitioned(SiteId a, SiteId b) const;

  /// Cached handles into the engine's registry: send() is the hottest path
  /// in the simulator, so per-message map lookups are unacceptable.  The
  /// cache is invalidated by pointer comparison whenever the attached
  /// registry changes (including attach-after-construction).
  struct MetricsCache {
    obs::Registry* registry = nullptr;
    obs::Counter* sent = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* bytes = nullptr;
    obs::LatencyHisto* delay = nullptr;
    obs::CausalLog* causal = nullptr;
    std::vector<obs::Counter*> site_sent;
    std::vector<obs::Counter*> site_bytes;
    // Weather counters register lazily, on the first event of each kind:
    // a run that never arms the conditioner keeps its registry snapshot
    // byte-identical to one built before the conditioner existed.
    obs::Counter* weather_drops = nullptr;
    obs::Counter* duplicates = nullptr;
    obs::Counter* reordered = nullptr;
  };
  void refresh_metrics();
  obs::Counter& lazy_counter(obs::Counter*& slot, const char* name);

  /// Stamps a fresh Envelope::seq and schedules one delivery after `delay`
  /// onto the destination endpoint's site shard.
  void schedule_delivery(EndpointId from, EndpointId to,
                         std::shared_ptr<std::unique_ptr<Payload>> box, std::size_t size,
                         util::SimTime delay, obs::TraceContext trace);

  /// The NetworkStats cell of the calling execution slot.
  [[nodiscard]] NetworkStats& live_stats() { return slot_stats_[obs::exec_slot().index]; }
  [[nodiscard]] std::uint64_t next_send_seq();
  /// Derives the engine's lookahead: the minimum cross-site one-way delay
  /// shrunk by the jitter floor.
  void update_lookahead();

  sim::Engine& engine_;
  Topology topology_;
  std::vector<Endpoint> endpoints_;
  std::vector<std::pair<SiteId, SiteId>> partitions_;
  double drop_probability_ = 0.0;
  double jitter_ = 0.1;
  LinkConditioner conditioner_;
  std::vector<std::uint64_t> slot_seq_;  // per-slot Envelope::seq counters
  std::vector<NetworkStats> slot_stats_;
  mutable NetworkStats merged_stats_;
  MetricsCache metrics_;
};

}  // namespace rbay::net
