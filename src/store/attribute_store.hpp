#pragma once

// Per-node attribute store: the "key-value map" component of the RBAY node
// architecture (Fig. 4), holding the node's Active Attributes.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "store/active_attribute.hpp"

namespace rbay::store {

class AttributeStore {
 public:
  /// Inserts or replaces an attribute (monitor feed or admin post).
  ActiveAttribute& put(std::string name, AttributeValue value);

  /// Removes an attribute; returns true if it existed.
  bool remove(const std::string& name);

  [[nodiscard]] bool contains(const std::string& name) const {
    return attrs_.count(name) != 0;
  }
  [[nodiscard]] const ActiveAttribute* find(const std::string& name) const;
  [[nodiscard]] ActiveAttribute* find(const std::string& name);

  /// Updates just the value, keeping any attached handlers.  Creates the
  /// attribute if missing.
  void update_value(const std::string& name, AttributeValue value);

  [[nodiscard]] std::size_t size() const { return attrs_.size(); }
  [[nodiscard]] const std::map<std::string, ActiveAttribute>& all() const { return attrs_; }
  [[nodiscard]] std::map<std::string, ActiveAttribute>& all() { return attrs_; }

  /// Attaches handler source to `name`.  Attributes with the same policy
  /// text, in this store or any other, share one compiled chunk
  /// (aal::Chunk::compile interns it); each keeps private script state.
  /// Creates the attribute if missing.
  util::Result<void> attach_handlers(const std::string& name, const std::string& source);

  /// Fires every attribute's onTimer handler; returns handler error count.
  /// Shared scripts fire once per owning attribute (each attribute is its
  /// own AA event source).
  int fire_timers();

  /// Total bytes pinned by the store (Fig. 8c metric).  Interned scripts
  /// are counted once plus a reference per attribute.
  [[nodiscard]] std::size_t memory_footprint() const;

 private:
  std::map<std::string, ActiveAttribute> attrs_;
};

}  // namespace rbay::store
