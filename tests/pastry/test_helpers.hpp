#pragma once

// Shared helpers for Pastry tests: a probe application that records what
// gets delivered where, usable as ground truth against Overlay::root_of.

#include <vector>

#include "pastry/overlay.hpp"

namespace rbay::pastry::testing {

struct ProbeMsg final : AppMessage {
  int tag = 0;
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
  [[nodiscard]] const char* type_name() const override { return "ProbeMsg"; }
};

struct Delivery {
  NodeId at_node;
  NodeId key;
  int tag = 0;
  int hops = 0;
};

/// Registers on a node and records deliveries and direct receives.
class ProbeApp final : public PastryApp {
 public:
  static constexpr const char* kName = "probe";

  explicit ProbeApp(PastryNode& node) : node_(node) { node.register_app(kName, this); }

  void deliver(const NodeId& key, AppMessage& msg, int hops) override {
    auto* probe = dynamic_cast<ProbeMsg*>(&msg);
    deliveries.push_back(Delivery{node_.self().id, key, probe ? probe->tag : -1, hops});
  }

  void receive(const NodeRef& from, AppMessage& msg) override {
    auto* probe = dynamic_cast<ProbeMsg*>(&msg);
    receives.emplace_back(from.id, probe ? probe->tag : -1);
  }

  std::vector<Delivery> deliveries;
  std::vector<std::pair<NodeId, int>> receives;

 private:
  PastryNode& node_;
};

/// Builds an overlay with one ProbeApp per node.
struct ProbeOverlay {
  sim::Engine engine;
  Overlay overlay;
  std::vector<std::unique_ptr<ProbeApp>> apps;

  ProbeOverlay(net::Topology topo, std::size_t per_site, std::uint64_t seed = 42)
      : engine(seed), overlay(engine, std::move(topo)) {
    overlay.populate(per_site);
    overlay.build_static();
    for (std::size_t i = 0; i < overlay.size(); ++i) {
      apps.push_back(std::make_unique<ProbeApp>(overlay.node(i)));
    }
  }

  void route_probe(std::size_t from, const NodeId& key, int tag,
                   Scope scope = Scope::Global) {
    auto msg = std::make_unique<ProbeMsg>();
    msg->tag = tag;
    overlay.node(from).route(key, std::move(msg), ProbeApp::kName, scope);
  }
};

}  // namespace rbay::pastry::testing
