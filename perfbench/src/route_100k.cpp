// route_100k: the Fig. 8a parallel-engine point.  Pastry only: 100k nodes
// over 16 uniform sites on the site-sharded engine, taking seeded batches
// of routed lookups toward a key universe of attribute names.  Each batch
// is issued from the control context and run for one simulated second.
//
// Deliveries are recorded per site: a site's nodes run only on that site's
// shard, so each tally has exactly one writer and the recorder is safe
// under concurrent site shards.  Every delivery is checked against a
// god-view ring: it must land on the node numerically closest to the key.

#include <algorithm>
#include <thread>

#include "obs/metrics.hpp"
#include "pastry/overlay.hpp"
#include "util/sha1.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rbay;

namespace {

constexpr std::size_t kSites = 16;
constexpr util::SimTime kBatchSim = util::SimTime::seconds(1);
constexpr const char* kApp = "perfbench.route";

struct RouteMsg final : pastry::AppMessage {
  util::SimTime sent;
  bool core = false;
  [[nodiscard]] std::size_t wire_size() const override { return 48; }
  [[nodiscard]] const char* type_name() const override { return "perfbench.Route"; }
};

/// Sorted node ids: the root of a key is its ring successor or predecessor.
class GodView {
 public:
  explicit GodView(const pastry::Overlay& overlay) {
    ids_.reserve(overlay.size());
    for (std::size_t i = 0; i < overlay.size(); ++i) {
      ids_.emplace_back(overlay.ref(i).id, static_cast<std::uint32_t>(i));
    }
    std::sort(ids_.begin(), ids_.end());
  }

  [[nodiscard]] std::size_t root(const pastry::NodeId& key) const {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), key,
                                     [](const auto& e, const pastry::NodeId& k) {
                                       return e.first < k;
                                     });
    const auto& succ = it == ids_.end() ? ids_.front() : *it;
    const auto& pred = it == ids_.begin() ? ids_.back() : *(it - 1);
    return pastry::closer_to(key, pred.first, succ.first) ? pred.second : succ.second;
  }

 private:
  std::vector<std::pair<pastry::NodeId, std::uint32_t>> ids_;
};

/// One site's deliveries, written only by that site's shard.
struct alignas(64) Tally {
  std::uint64_t delivered = 0;
  std::uint64_t hop_sum = 0;
  std::uint64_t misrouted = 0;
  util::Samples core_latency_ms;
};

class RouteSink final : public pastry::PastryApp {
 public:
  RouteSink(sim::Engine& engine, const GodView& god, Tally& tally, std::size_t index)
      : engine_(engine), god_(god), tally_(tally), index_(index) {}

  void deliver(const pastry::NodeId& key, pastry::AppMessage& msg, int hops) override {
    const auto& route = static_cast<const RouteMsg&>(msg);
    ++tally_.delivered;
    tally_.hop_sum += static_cast<std::uint64_t>(hops);
    if (god_.root(key) != index_) ++tally_.misrouted;
    if (route.core) tally_.core_latency_ms.add((engine_.now() - route.sent).as_millis());
  }

 private:
  sim::Engine& engine_;
  const GodView& god_;
  Tally& tally_;
  std::size_t index_;
};

/// The routing federation, usable by the workload and the self-test.
class RouteFederation {
 public:
  RouteFederation(std::size_t nodes, unsigned workers, std::uint64_t seed, bool traced,
                  Spans& spans)
      : nodes_(nodes), workers_(workers), seed_(seed), traced_(traced), spans_(spans),
        rng_(seed ^ 0xD1B54A32D192ED03ULL) {}

  void build() {
    if (traced_) registry_ = std::make_unique<obs::Registry>();
    sim::EngineConfig config;
    config.threads = workers_;
    config.shard_by_site = true;
    engine_ = std::make_unique<sim::Engine>(seed_, config);
    if (traced_) {
      engine_->set_metrics(registry_.get());
      // Per-endpoint flight rings at the default depth would hold ~6M
      // events at this node count; keep a short one.
      registry_->causal().set_flight_capacity(4);
    }
    spans_.time("pastry", "Overlay::populate", [&] {
      overlay_ = std::make_unique<pastry::Overlay>(
          *engine_, net::Topology::uniform(kSites, 0.5, 40.0));
      overlay_->populate(nodes_ / kSites);
    });
    build_static_s = spans_.time("pastry", "Overlay::build_static",
                                 [&] { overlay_->build_static(); });
    god_ = std::make_unique<GodView>(*overlay_);
    tallies_ = std::vector<Tally>(kSites);
    sinks_.reserve(overlay_->size());
    for (std::size_t i = 0; i < overlay_->size(); ++i) {
      sinks_.push_back(std::make_unique<RouteSink>(*engine_, *god_,
                                                   tallies_[overlay_->ref(i).site], i));
      overlay_->node(i).register_app(kApp, sinks_.back().get());
    }
    // Key universe as in Fig. 8a's sweep: one attribute key for ~10% of
    // the nodes.
    for (std::size_t i = 0; i < overlay_->size(); ++i) {
      if (rng_.chance(0.10)) keys_.push_back(util::Sha1::hash128("attr-" + std::to_string(i)));
    }
  }

  /// Routes `count` lookups and runs the engine for one simulated second.
  /// Returns the deliveries that batch made.
  std::uint64_t batch(std::size_t count, bool core) {
    const auto before = delivered();
    const auto now = engine_->now();
    spans_.time("pastry", "PastryNode::route", [&] {
      for (std::size_t r = 0; r < count; ++r) {
        const auto from = rng_.uniform(overlay_->size());
        const auto& key = keys_[rng_.uniform(keys_.size())];
        auto msg = std::make_unique<RouteMsg>();
        msg->sent = now;
        msg->core = core;
        overlay_->node(from).route(key, std::move(msg), kApp);
      }
    });
    spans_.time("sim", "Engine::run_until", [&] { engine_->run_until(now + kBatchSim); });
    return delivered() - before;
  }

  [[nodiscard]] std::uint64_t delivered() const { return sum(&Tally::delivered); }
  [[nodiscard]] std::uint64_t hop_sum() const { return sum(&Tally::hop_sum); }
  [[nodiscard]] std::uint64_t misrouted() const { return sum(&Tally::misrouted); }
  [[nodiscard]] util::Samples core_latency_ms() const {
    util::Samples all;
    for (const auto& t : tallies_) {
      for (const double v : t.core_latency_ms.values()) all.add(v);
    }
    return all;
  }

  [[nodiscard]] std::size_t size() const { return overlay_ ? overlay_->size() : nodes_; }
  sim::Engine& engine() { return *engine_; }
  net::Network& network() { return overlay_->network(); }

  double build_static_s = 0.0;

 private:
  [[nodiscard]] std::uint64_t sum(std::uint64_t Tally::* field) const {
    std::uint64_t n = 0;
    for (const auto& t : tallies_) n += t.*field;
    return n;
  }

  const std::size_t nodes_;
  const unsigned workers_;
  const std::uint64_t seed_;
  const bool traced_;
  Spans& spans_;
  util::Rng rng_;
  // Destruction runs bottom-up: the overlay (whose nodes point at the
  // sinks) goes first, the engine after everything that schedules on it,
  // the registry last.
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<GodView> god_;
  std::vector<Tally> tallies_;
  std::vector<std::unique_ptr<RouteSink>> sinks_;
  std::unique_ptr<pastry::Overlay> overlay_;
  std::vector<pastry::NodeId> keys_;
};

constexpr std::size_t kNodes = 100000;
constexpr std::size_t kRoutesPerBatch = 25000;
constexpr std::size_t kCoreBatches = 20;  // 500k routes

class Route100k final : public Workload {
 public:
  Route100k(const Options& options, Spans& spans, bool traced)
      : fed_(kNodes, route_workers(), options.seed, traced, spans) {}

  void setup() override { fed_.build(); }
  [[nodiscard]] std::size_t nodes() const override { return fed_.size(); }
  [[nodiscard]] std::size_t core_batches() const override { return kCoreBatches; }
  sim::Engine& engine() override { return fed_.engine(); }
  net::Network& network() override { return fed_.network(); }

  std::size_t batch(std::size_t index) override {
    const auto delivered = fed_.batch(kRoutesPerBatch, index < kCoreBatches);
    attempted_ += kRoutesPerBatch;
    if (delivered != kRoutesPerBatch) {
      undelivered_ += kRoutesPerBatch - std::min<std::uint64_t>(delivered, kRoutesPerBatch);
    }
    return delivered;
  }

  void finish(Result& result) override {
    fed_.engine().run();
    const auto misrouted = fed_.misrouted();
    if (undelivered_ > 0) {
      result.error("route_100k: " + std::to_string(undelivered_) +
                   " lookups not delivered within their batch");
    }
    if (misrouted > 0) {
      result.error("route_100k: " + std::to_string(misrouted) +
                   " lookups delivered away from the key's closest live node");
    }
    result.ops(attempted_, undelivered_ + misrouted);
    const auto latency = fed_.core_latency_ms();
    result.metric("query_sim_ms_p50", pct(latency, 50), "ms");
    result.metric("query_sim_ms_p99", pct(latency, 99), "ms");
  }

  void layers(Result& result) override {
    result.metric("pastry.build_static_s", fed_.build_static_s, "s");
  }

 private:
  RouteFederation fed_;
  std::uint64_t attempted_ = 0;
  std::uint64_t undelivered_ = 0;
};

}  // namespace

unsigned route_workers() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
}

std::unique_ptr<Workload> make_route_100k(const Options& options, Spans& spans, bool traced) {
  return std::make_unique<Route100k>(options, spans, traced);
}

int route_selftest() {
  struct Outcome {
    std::uint64_t delivered, hop_sum, misrouted;
  };
  auto run_at = [](unsigned workers) {
    Spans spans;
    RouteFederation fed{16000, workers, /*seed=*/42, /*traced=*/false, spans};
    fed.build();
    for (int b = 0; b < 2; ++b) (void)fed.batch(10000, /*core=*/true);
    fed.engine().run();
    return Outcome{fed.delivered(), fed.hop_sum(), fed.misrouted()};
  };
  // Pinned for seed 42: any change to what the recorder sees fails here.
  constexpr Outcome kPinned{20000, 68198, 0};
  int failures = 0;
  for (const unsigned workers : {1u, route_workers(), 4u}) {
    const auto o = run_at(workers);
    const bool ok = o.delivered == kPinned.delivered && o.hop_sum == kPinned.hop_sum &&
                    o.misrouted == 0;
    std::printf("route selftest: workers=%u delivered=%llu hop_sum=%llu misrouted=%llu %s\n",
                workers, static_cast<unsigned long long>(o.delivered),
                static_cast<unsigned long long>(o.hop_sum),
                static_cast<unsigned long long>(o.misrouted), ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
