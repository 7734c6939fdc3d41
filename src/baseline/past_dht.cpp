#include "baseline/past_dht.hpp"

#include "util/msg_tag.hpp"
#include "util/sha1.hpp"

namespace rbay::baseline {

namespace {

struct InsertMsg final : pastry::TaggedMessage<InsertMsg> {
  std::string text_key;
  std::string value;
  std::uint64_t request_id = 0;
  pastry::NodeRef origin;
  [[nodiscard]] std::size_t wire_size() const override {
    return 48 + text_key.size() + value.size();
  }
  [[nodiscard]] const char* type_name() const override { return "past.Insert"; }
};

struct ReplicateMsg final : pastry::TaggedMessage<ReplicateMsg> {
  pastry::NodeId key;
  std::string text_key;
  std::string value;
  [[nodiscard]] std::size_t wire_size() const override {
    return 40 + text_key.size() + value.size();
  }
  [[nodiscard]] const char* type_name() const override { return "past.Replicate"; }
};

struct InsertAckMsg final : pastry::TaggedMessage<InsertAckMsg> {
  std::uint64_t request_id = 0;
  int replicas = 0;
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
  [[nodiscard]] const char* type_name() const override { return "past.InsertAck"; }
};

struct LookupMsg final : pastry::TaggedMessage<LookupMsg> {
  std::uint64_t request_id = 0;
  pastry::NodeRef origin;
  [[nodiscard]] std::size_t wire_size() const override { return 40; }
  [[nodiscard]] const char* type_name() const override { return "past.Lookup"; }
};

struct LookupReplyMsg final : pastry::TaggedMessage<LookupReplyMsg> {
  std::uint64_t request_id = 0;
  bool found = false;
  std::vector<std::string> values;
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t size = 24;
    for (const auto& v : values) size += 8 + v.size();
    return size;
  }
  [[nodiscard]] const char* type_name() const override { return "past.LookupReply"; }
};

pastry::NodeId key_id(const std::string& text_key) {
  return util::Sha1::hash128("past:" + text_key);
}

}  // namespace

PastDhtNode::PastDhtNode(pastry::PastryNode& node, PastDhtConfig config)
    : node_(node), app_(node.register_app(kAppName, this)), config_(config) {}

void PastDhtNode::store_local(const pastry::NodeId& key, const std::string& text_key,
                              const std::string& value) {
  auto& entry = store_[key];
  entry.first = text_key;
  for (const auto& existing : entry.second) {
    if (existing == value) return;
  }
  entry.second.push_back(value);
}

void PastDhtNode::insert(const std::string& key, const std::string& value,
                         std::function<void(int)> on_stored) {
  const auto id = next_request_++;
  if (on_stored) insert_waiters_[id] = std::move(on_stored);
  auto msg = std::make_unique<InsertMsg>();
  msg->text_key = key;
  msg->value = value;
  msg->request_id = id;
  msg->origin = node_.self();
  node_.route(key_id(key), std::move(msg), app_);
}

void PastDhtNode::lookup(const std::string& key, LookupCallback callback) {
  const auto id = next_request_++;
  lookup_waiters_[id] = std::move(callback);
  auto msg = std::make_unique<LookupMsg>();
  msg->request_id = id;
  msg->origin = node_.self();
  node_.route(key_id(key), std::move(msg), app_);
}

void PastDhtNode::deliver(const pastry::NodeId& key, pastry::AppMessage& msg, int /*hops*/) {
  if (auto* insert = util::msg_as<InsertMsg>(msg)) {
    // We are the key root: store and replicate to our closest leaves.
    store_local(key, insert->text_key, insert->value);
    int replicas = 1;
    for (const auto& leaf : node_.leaf_set().all()) {
      if (replicas >= config_.replicas) break;
      auto rep = std::make_unique<ReplicateMsg>();
      rep->key = key;
      rep->text_key = insert->text_key;
      rep->value = insert->value;
      node_.send_direct(leaf, std::move(rep), app_);
      ++replicas;
    }
    auto ack = std::make_unique<InsertAckMsg>();
    ack->request_id = insert->request_id;
    ack->replicas = replicas;
    if (insert->origin.id == node_.self().id) {
      auto it = insert_waiters_.find(insert->request_id);
      if (it != insert_waiters_.end()) {
        auto cb = std::move(it->second);
        insert_waiters_.erase(it);
        cb(replicas);
      }
      return;
    }
    node_.send_direct(insert->origin, std::move(ack), app_);
    return;
  }
  if (auto* lookup = util::msg_as<LookupMsg>(msg)) {
    auto reply = std::make_unique<LookupReplyMsg>();
    reply->request_id = lookup->request_id;
    auto it = store_.find(key);
    if (it != store_.end()) {
      reply->found = true;
      reply->values = it->second.second;
    }
    if (lookup->origin.id == node_.self().id) {
      auto wit = lookup_waiters_.find(reply->request_id);
      if (wit != lookup_waiters_.end()) {
        auto cb = std::move(wit->second);
        lookup_waiters_.erase(wit);
        cb(reply->found, std::move(reply->values));
      }
      return;
    }
    node_.send_direct(lookup->origin, std::move(reply), app_);
    return;
  }
}

void PastDhtNode::receive(const pastry::NodeRef& /*from*/, pastry::AppMessage& msg) {
  if (auto* rep = util::msg_as<ReplicateMsg>(msg)) {
    store_local(rep->key, rep->text_key, rep->value);
    return;
  }
  if (auto* ack = util::msg_as<InsertAckMsg>(msg)) {
    auto it = insert_waiters_.find(ack->request_id);
    if (it != insert_waiters_.end()) {
      auto cb = std::move(it->second);
      insert_waiters_.erase(it);
      cb(ack->replicas);
    }
    return;
  }
  if (auto* reply = util::msg_as<LookupReplyMsg>(msg)) {
    auto it = lookup_waiters_.find(reply->request_id);
    if (it != lookup_waiters_.end()) {
      auto cb = std::move(it->second);
      lookup_waiters_.erase(it);
      cb(reply->found, std::move(reply->values));
    }
    return;
  }
}

std::size_t PastDhtNode::memory_footprint() const {
  std::size_t total = 48;
  for (const auto& [key, entry] : store_) {
    total += 16 + 24 + entry.first.size();
    for (const auto& v : entry.second) total += 24 + v.size();
  }
  return total;
}

PastDht::PastDht(pastry::Overlay& overlay, PastDhtConfig config) {
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    services_.push_back(std::make_unique<PastDhtNode>(overlay.node(i), config));
  }
}

}  // namespace rbay::baseline
