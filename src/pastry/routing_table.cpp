#include "pastry/routing_table.hpp"

#include <limits>

namespace rbay::pastry {

std::optional<NodeRef> RoutingTable::entry(int row, int col) const {
  RBAY_REQUIRE(row >= 0 && row < kDigits && col >= 0 && col < kDigitValues,
               "RoutingTable::entry: no such slot");
  const NodeIndex node = node_at(slot_index(row, static_cast<unsigned>(col)));
  if (node == kNoNode) return std::nullopt;
  return (*nodes_)[node];
}

bool RoutingTable::consider(NodeIndex candidate, std::int64_t proximity_us) {
  RBAY_REQUIRE(proximity_us >= 0 && proximity_us <= std::numeric_limits<std::uint32_t>::max(),
               "RoutingTable::consider: proximity out of range");
  const NodeId& own = owner().id;
  const NodeId& id = (*nodes_)[candidate].id;
  if (id == own) return false;
  const int row = own.shared_prefix_digits(id, kBitsPerDigit);
  if (row >= kDigits) return false;  // identical ids are rejected above
  const auto rows_needed = static_cast<std::size_t>(row + 1) * kDigitValues;
  if (slots_.size() < rows_needed) {
    slots_.reserve(rows_needed);  // exactly: no geometric slack per node
    slots_.resize(rows_needed);
  }
  Slot& slot = slots_[slot_index(row, id.digit(row, kBitsPerDigit))];
  const auto prox = static_cast<std::uint32_t>(proximity_us);
  if (slot.node == kNoNode || prox < slot.proximity_us || slot.node == candidate) {
    slot = Slot{candidate, prox};
    return true;
  }
  return false;
}

std::optional<NodeRef> RoutingTable::lookup(const NodeId& key) const {
  const int row = owner().id.shared_prefix_digits(key, kBitsPerDigit);
  if (row >= kDigits) return std::nullopt;  // key == owner id
  const NodeIndex node = node_at(slot_index(row, key.digit(row, kBitsPerDigit)));
  if (node == kNoNode) return std::nullopt;
  return (*nodes_)[node];
}

void RoutingTable::remove(const NodeId& id) {
  // A node can only sit in the one slot its id selects.
  const int row = owner().id.shared_prefix_digits(id, kBitsPerDigit);
  if (row >= kDigits) return;
  const auto i = slot_index(row, id.digit(row, kBitsPerDigit));
  const NodeIndex node = node_at(i);
  if (node != kNoNode && (*nodes_)[node].id == id) slots_[i] = Slot{};
}

std::vector<NodeRef> RoutingTable::entries() const {
  std::vector<NodeRef> out;
  for_each([&](const NodeRef& r) { out.push_back(r); });
  return out;
}

std::vector<NodeRef> RoutingTable::row_entries(int row) const {
  RBAY_REQUIRE(row >= 0 && row < kDigits, "RoutingTable::row_entries: no such row");
  std::vector<NodeRef> out;
  for (unsigned col = 0; col < kDigitValues; ++col) {
    const NodeIndex node = node_at(slot_index(row, col));
    if (node != kNoNode) out.push_back((*nodes_)[node]);
  }
  return out;
}

std::size_t RoutingTable::size() const {
  std::size_t n = 0;
  for_each([&](const NodeRef&) { ++n; });
  return n;
}

}  // namespace rbay::pastry
