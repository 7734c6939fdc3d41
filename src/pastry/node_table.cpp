#include "pastry/node_table.hpp"

namespace rbay::pastry {

NodeIndex NodeTable::add(const NodeRef& ref) {
  RBAY_REQUIRE(refs_.size() < kNoNode, "NodeTable::add: table full");
  RBAY_REQUIRE(ref.endpoint != net::kInvalidEndpoint, "NodeTable::add: endpoint required");
  if (by_endpoint_.size() <= ref.endpoint) by_endpoint_.resize(ref.endpoint + 1, kNoNode);
  RBAY_REQUIRE(by_endpoint_[ref.endpoint] == kNoNode, "NodeTable::add: endpoint already added");
  const auto i = static_cast<NodeIndex>(refs_.size());
  by_endpoint_[ref.endpoint] = i;
  refs_.push_back(ref);
  return i;
}

NodeIndex NodeTable::index_of(const NodeRef& ref) const {
  const NodeIndex i = ref.endpoint < by_endpoint_.size() ? by_endpoint_[ref.endpoint] : kNoNode;
  RBAY_REQUIRE(i != kNoNode && refs_[i] == ref, "NodeTable::index_of: unknown node");
  return i;
}

}  // namespace rbay::pastry
