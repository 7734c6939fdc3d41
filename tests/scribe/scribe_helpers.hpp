#pragma once

// Shared fixture for Scribe tests: overlay + one Scribe + one recording
// TopicMember per node.

#include <memory>
#include <vector>

#include "pastry/overlay.hpp"
#include "scribe/scribe.hpp"

namespace rbay::scribe::testing {

/// Payload for anycast tests: collects node ids until `want` are gathered.
struct CollectPayload final : AnycastPayload {
  std::size_t want = 1;
  std::vector<pastry::NodeId> collected;
  [[nodiscard]] std::size_t wire_size() const override { return 16 + collected.size() * 16; }
  [[nodiscard]] std::unique_ptr<AnycastPayload> clone() const override {
    return std::make_unique<CollectPayload>(*this);
  }
};

class RecordingMember final : public TopicMember {
 public:
  void on_multicast(const TopicId& topic, const std::string& data) override {
    multicasts.emplace_back(topic, data);
  }

  bool on_anycast(const TopicId&, AnycastPayload& payload) override {
    ++anycast_visits;
    if (refuse) return false;
    auto& collect = dynamic_cast<CollectPayload&>(payload);
    collect.collected.push_back(self_id);
    return collect.collected.size() >= collect.want;
  }

  double aggregate_contribution(const TopicId&) override { return contribution_; }

  /// Changes this member's contribution to every topic and tells its
  /// Scribe, whose rounds only re-read changed topics.
  void set_contribution(double value) {
    contribution_ = value;
    if (scribe == nullptr) return;
    for (const auto& topic : scribe->known_topics()) scribe->contribution_changed(topic);
  }

  pastry::NodeId self_id;
  Scribe* scribe = nullptr;
  bool refuse = false;
  int anycast_visits = 0;
  std::vector<std::pair<TopicId, std::string>> multicasts;

 private:
  double contribution_ = 1.0;
};

struct ScribeOverlay {
  sim::Engine engine;
  pastry::Overlay overlay;
  std::vector<std::unique_ptr<Scribe>> scribes;
  std::vector<std::unique_ptr<RecordingMember>> members;

  explicit ScribeOverlay(std::size_t per_site,
                         net::Topology topo = net::Topology::single_site(),
                         ScribeConfig config = {}, std::uint64_t seed = 42,
                         sim::EngineConfig engine_config = {})
      : engine(seed, engine_config), overlay(engine, std::move(topo)) {
    overlay.populate(per_site);
    overlay.build_static();
    for (std::size_t i = 0; i < overlay.size(); ++i) {
      scribes.push_back(std::make_unique<Scribe>(overlay.node(i), config));
      auto member = std::make_unique<RecordingMember>();
      member->self_id = overlay.ref(i).id;
      member->scribe = scribes.back().get();
      members.push_back(std::move(member));
    }
  }

  void subscribe_all(const TopicId& topic) {
    for (std::size_t i = 0; i < overlay.size(); ++i) {
      scribes[i]->subscribe(topic, members[i].get());
    }
    engine.run();
  }

  /// Verifies the tree is consistent: every live subscriber has a path of
  /// live parent links ending at the topic root of its site.
  [[nodiscard]] bool tree_is_consistent(const TopicId& topic) const {
    for (std::size_t i = 0; i < overlay.size(); ++i) {
      if (overlay.is_failed(i) || !scribes[i]->subscribed(topic)) continue;
      const auto root = overlay.root_of_in_site(topic, overlay.ref(i).site);
      std::size_t at = i;
      int steps = 0;
      while (at != root) {
        const auto parent = scribes[at]->parent_of(topic);
        if (!parent) return false;
        at = overlay.index_of(parent->id);
        if (overlay.is_failed(at)) return false;
        if (++steps > 64) return false;
      }
    }
    return true;
  }
};

}  // namespace rbay::scribe::testing
