#pragma once

// Pastry routing table: kDigits rows × kDigitValues columns.
//
// Row r holds nodes sharing exactly r leading digits with the owner; column
// c is the value of digit r.  When several candidates compete for a slot the
// proximity-aware variant keeps the lowest-latency one (Pastry §2.5).
//
// A slot is a node-table index plus the proximity it won with (8 bytes).
// Rows live in one buffer that grows only to the deepest populated row: a
// populated table touches ~log16(N) of its 32 rows.

#include <cstdint>
#include <optional>
#include <vector>

#include "pastry/node_table.hpp"

namespace rbay::pastry {

class RoutingTable {
 public:
  RoutingTable(const NodeTable& nodes, NodeIndex owner) : nodes_(&nodes), owner_(owner) {}

  [[nodiscard]] const NodeRef& owner() const { return (*nodes_)[owner_]; }

  /// Considers `candidate` for its slot; keeps it if the slot is empty,
  /// already holds it, or if `proximity_us` improves on the incumbent's.
  /// Returns true if stored.
  bool consider(NodeIndex candidate, std::int64_t proximity_us);

  /// Entry for routing `key` from a node sharing `row` digits: the node
  /// whose next digit matches the key's.
  [[nodiscard]] std::optional<NodeRef> lookup(const NodeId& key) const;

  [[nodiscard]] std::optional<NodeRef> entry(int row, int col) const;

  void remove(const NodeId& id);

  /// All populated entries in row-major order (for join replies and tests).
  [[nodiscard]] std::vector<NodeRef> entries() const;

  /// Entries of a single row (join protocol sends row-by-row).
  [[nodiscard]] std::vector<NodeRef> row_entries(int row) const;

  /// Calls `fn(const NodeRef&)` for every populated entry in row-major
  /// order, without allocating.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.node != kNoNode) fn((*nodes_)[slot.node]);
    }
  }

  [[nodiscard]] std::size_t size() const;

 private:
  struct Slot {
    NodeIndex node = kNoNode;
    std::uint32_t proximity_us = 0;
  };

  [[nodiscard]] static std::size_t slot_index(int row, unsigned col) {
    return static_cast<std::size_t>(row) * kDigitValues + col;
  }
  /// The node in slot `i`, or kNoNode if it is empty or its row was never
  /// populated.
  [[nodiscard]] NodeIndex node_at(std::size_t i) const {
    return i < slots_.size() ? slots_[i].node : kNoNode;
  }

  const NodeTable* nodes_;
  NodeIndex owner_;
  std::vector<Slot> slots_;  // row-major, kDigitValues slots per row
};

}  // namespace rbay::pastry
