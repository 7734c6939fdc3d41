#pragma once

// Past over Pastry: the storage baseline as an actual DHT service
// (Rowstron & Druschel, SOSP'01), not just a local map.
//
// insert(key, value) routes to the key's root, which stores the entry and
// replicates it to its k-1 closest leaf-set neighbors ("replica set").
// lookup(key) routes to the root and returns the stored values.  This is
// the "prior work" data point for the design argument in §V.C: an
// exact-match key-value plane can find *a* registered NodeId list but
// cannot serve composite/range predicates or run admission policy — that
// is what RBAY's trees + Active Attributes add.

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "pastry/overlay.hpp"

namespace rbay::baseline {

struct PastDhtConfig {
  /// Replication factor (root + k-1 leaf neighbors).
  int replicas = 3;
};

/// Per-node Past service.  One instance per PastryNode, registered under
/// app name "past".
class PastDhtNode final : public pastry::PastryApp {
 public:
  explicit PastDhtNode(pastry::PastryNode& node, PastDhtConfig config = {});

  PastDhtNode(const PastDhtNode&) = delete;
  PastDhtNode& operator=(const PastDhtNode&) = delete;

  /// Stores `value` under the textual key (replicated at the key root's
  /// replica set).  `on_stored` (optional) fires on the ack.
  void insert(const std::string& key, const std::string& value,
              std::function<void(int stored_replicas)> on_stored = nullptr);

  /// Fetches all values under `key` from the key's root.
  using LookupCallback = std::function<void(bool found, std::vector<std::string> values)>;
  void lookup(const std::string& key, LookupCallback callback);

  /// Local store introspection (which keys this node replicates).
  [[nodiscard]] std::size_t stored_keys() const { return store_.size(); }
  [[nodiscard]] std::size_t memory_footprint() const;

  // PastryApp.
  void deliver(const pastry::NodeId& key, pastry::AppMessage& msg, int hops) override;
  void receive(const pastry::NodeRef& from, pastry::AppMessage& msg) override;

  static constexpr const char* kAppName = "past";

 private:
  void store_local(const pastry::NodeId& key, const std::string& text_key,
                   const std::string& value);

  pastry::PastryNode& node_;
  pastry::AppId app_;  // kAppName, interned
  PastDhtConfig config_;
  // key id → (textual key, values)
  std::unordered_map<pastry::NodeId, std::pair<std::string, std::vector<std::string>>,
                     util::U128Hash>
      store_;
  std::unordered_map<std::uint64_t, LookupCallback> lookup_waiters_;
  std::unordered_map<std::uint64_t, std::function<void(int)>> insert_waiters_;
  std::uint64_t next_request_ = 1;
};

/// Convenience: attaches a PastDhtNode to every node of an overlay.
class PastDht {
 public:
  explicit PastDht(pastry::Overlay& overlay, PastDhtConfig config = {});

  [[nodiscard]] PastDhtNode& node(std::size_t i) { return *services_.at(i); }
  [[nodiscard]] std::size_t size() const { return services_.size(); }

 private:
  std::vector<std::unique_ptr<PastDhtNode>> services_;
};

}  // namespace rbay::baseline
