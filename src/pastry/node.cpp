#include "pastry/node.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>

#include "util/log.hpp"
#include "util/msg_tag.hpp"

namespace rbay::pastry {

namespace {

/// Process-wide app-name table.  Names are written once, under the lock,
/// before `count` publishes them, so readers scan without locking.
struct AppTable {
  static constexpr std::uint32_t kCapacity = 64;
  std::array<std::string, kCapacity> names;
  std::atomic<std::uint32_t> count{0};
  std::mutex mu;

  [[nodiscard]] std::optional<AppId> find(std::string_view name, std::uint32_t n) const {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (names[i] == name) return AppId{i};
    }
    return std::nullopt;
  }
};

AppTable& app_table() {
  static AppTable table;
  return table;
}

}  // namespace

AppId intern_app(std::string_view name) {
  AppTable& table = app_table();
  if (auto id = table.find(name, table.count.load(std::memory_order_acquire))) return *id;
  std::lock_guard<std::mutex> lk(table.mu);
  const std::uint32_t n = table.count.load(std::memory_order_relaxed);
  if (auto id = table.find(name, n)) return *id;
  RBAY_REQUIRE(n < AppTable::kCapacity, "intern_app: too many Pastry application names");
  table.names[n] = std::string(name);
  table.count.store(n + 1, std::memory_order_release);
  return AppId{n};
}

const std::string& app_name(AppId id) {
  const AppTable& table = app_table();
  const auto i = static_cast<std::uint32_t>(id);
  RBAY_REQUIRE(i < table.count.load(std::memory_order_acquire), "app_name: unknown AppId");
  return table.names[i];
}

PastryNode::PastryNode(net::Network& network, const NodeTable& nodes, NodeIndex index,
                       net::SiteId site, std::string_view ip)
    : network_(network),
      nodes_(nodes),
      self_{node_id_from_ip(ip),
            network.add_endpoint(site, [this](net::Envelope env) { on_envelope(std::move(env)); }),
            site},
      leaves_(nodes, index),
      table_(nodes, index),
      site_leaves_(nodes, index),
      site_table_(nodes, index) {}

AppId PastryNode::register_app(const std::string& name, PastryApp* app) {
  RBAY_REQUIRE(app != nullptr, "register_app: app required");
  const AppId id = intern_app(name);
  const auto i = static_cast<std::size_t>(id);
  if (apps_.size() <= i) apps_.resize(i + 1, nullptr);
  apps_[i] = app;
  return id;
}

std::int64_t PastryNode::proximity_to(const NodeRef& other) const {
  return network_.expected_delay(self_.endpoint, other.endpoint).as_micros();
}

void PastryNode::learn(const NodeRef& other) {
  if (other.id == self_.id) return;
  const NodeIndex i = nodes_.index_of(other);
  const auto prox = proximity_to(other);
  leaves_.consider(i);
  table_.consider(i, prox);
  if (other.site == self_.site) {
    site_leaves_.consider(i);
    site_table_.consider(i, prox);
  }
  joined_ = true;
}

void PastryNode::forget(const NodeId& id) {
  const bool in_leaf_set = leaves_.contains(id) || site_leaves_.contains(id);
  if (in_leaf_set) {
    if (auto* registry = metrics()) registry->fed().counter<"pastry.leaf_repairs">().inc();
  }
  leaves_.remove(id);
  table_.remove(id);
  site_leaves_.remove(id);
  site_table_.remove(id);
  if (in_leaf_set) {
    // Notify after the removal so apps querying next_hop() see the
    // post-transfer ownership of keys the dead neighbor used to cover.
    // In app-name order, whatever order the names were interned in.
    std::vector<AppId> order;
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      if (apps_[i] != nullptr) order.push_back(AppId{static_cast<std::uint32_t>(i)});
    }
    std::sort(order.begin(), order.end(),
              [](AppId a, AppId b) { return app_name(a) < app_name(b); });
    for (AppId app : order) apps_[static_cast<std::size_t>(app)]->neighbor_failed(id);
  }
}

std::optional<NodeRef> PastryNode::rare_case_hop(const NodeId& key, Scope scope) const {
  // Pastry's rare case: no routing-table entry; pick any known node that is
  // (a) at least as prefix-close to the key as we are and (b) numerically
  // closer.  If none exists we are the root.
  const auto& ls = scope == Scope::Global ? leaves_ : site_leaves_;
  const auto& rt = scope == Scope::Global ? table_ : site_table_;
  const int own_prefix = self_.id.shared_prefix_digits(key, kBitsPerDigit);

  // closer_to is a total order, so the scan order (and a node seen on both
  // leaf sides) cannot change the result.
  const NodeRef* best = nullptr;
  auto try_candidate = [&](const NodeRef& r) {
    if (scope == Scope::Site && r.site != self_.site) return;
    if (r.id.shared_prefix_digits(key, kBitsPerDigit) < own_prefix) return;
    if (!closer_to(key, r.id, best != nullptr ? best->id : self_.id)) return;
    best = &r;
  };
  for (const NodeRef& r : ls.clockwise()) try_candidate(r);
  for (const NodeRef& r : ls.counter_clockwise()) try_candidate(r);
  rt.for_each(try_candidate);
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::optional<NodeRef> PastryNode::next_hop(const NodeId& key, Scope scope) const {
  const auto& ls = scope == Scope::Global ? leaves_ : site_leaves_;
  const auto& rt = scope == Scope::Global ? table_ : site_table_;

  if (key == self_.id) return std::nullopt;

  if (ls.covers(key)) {
    const NodeRef best = ls.closest(key);
    if (best.id == self_.id) return std::nullopt;
    return best;
  }
  if (auto entry = rt.lookup(key)) {
    return entry;
  }
  return rare_case_hop(key, scope);
}

void PastryNode::route(const NodeId& key, std::unique_ptr<AppMessage> msg, AppId app,
                       Scope scope) {
  RBAY_REQUIRE(msg != nullptr, "route: message required");
  if (auto* registry = metrics()) registry->fed().counter<"pastry.routes">().inc();
  const auto hop = next_hop(key, scope);
  if (!hop) {
    deliver_local(key, app, *msg, 0);
    return;
  }
  if (auto* handler = find_app(app)) {
    if (!handler->forward(key, *msg, *hop)) return;
  }
  auto env = std::make_unique<RouteEnvelope>();
  env->key = key;
  env->scope = scope;
  env->hops = 1;
  env->app = app;
  env->msg = std::move(msg);
  network_.send(self_.endpoint, hop->endpoint, std::move(env));
}

void PastryNode::send_direct(const NodeRef& target, std::unique_ptr<AppMessage> msg, AppId app) {
  RBAY_REQUIRE(msg != nullptr, "send_direct: message required");
  auto env = std::make_unique<DirectEnvelope>();
  env->sender = self_;
  env->app = app;
  env->msg = std::move(msg);
  network_.send(self_.endpoint, target.endpoint, std::move(env));
}

void PastryNode::join(const NodeRef& bootstrap) {
  auto req = std::make_unique<JoinRequest>();
  req->joiner = self_;
  network_.send(self_.endpoint, bootstrap.endpoint, std::move(req));
}

void PastryNode::deliver_local(const NodeId& key, AppId app, AppMessage& msg, int hops) {
  if (auto* registry = metrics()) {
    registry->fed().counter<"pastry.delivers">().inc();
    registry->fed().latency<"pastry.delivery_hops">().add_us(hops);
    // One causal point per routed delivery: the hop-attribution test
    // cross-checks its count against the delivery_hops sample count.
    registry->causal().local(network_.site_of(self_.endpoint), self_.endpoint, "pastry.deliver",
                             network_.engine().now());
  }
  if (auto* handler = find_app(app)) {
    handler->deliver(key, msg, hops);
  } else {
    RBAY_WARN("pastry", "no app '" << app_name(app) << "' registered on " << self_.id.to_hex());
  }
}

void PastryNode::handle_route(std::unique_ptr<RouteEnvelope> env) {
  const auto hop = next_hop(env->key, env->scope);
  if (!hop) {
    deliver_local(env->key, env->app, *env->msg, env->hops);
    return;
  }
  ++forward_count_;
  if (auto* registry = metrics()) {
    registry->fed().counter<"pastry.forwards">().inc();
  }
  if (auto* handler = find_app(env->app)) {
    if (!handler->forward(env->key, *env->msg, *hop)) return;
  }
  // Forward the received envelope itself: one hop more, no copy.
  ++env->hops;
  network_.send(self_.endpoint, hop->endpoint, std::move(env));
}

void PastryNode::handle_join_request(JoinRequest& req) {
  // Contribute own state: self, the routing rows useful to the joiner, and
  // (at the root) the leaf set.
  req.collected.push_back(self_);
  const int shared = self_.id.shared_prefix_digits(req.joiner.id, kBitsPerDigit);
  for (int row = 0; row <= std::min(shared, kDigits - 1); ++row) {
    for (const auto& r : table_.row_entries(row)) req.collected.push_back(r);
  }

  // Compute the next hop before learning the joiner, otherwise the joiner
  // itself becomes the numerically-closest candidate for its own id.
  const auto hop = next_hop(req.joiner.id, Scope::Global);
  learn(req.joiner);

  if (!hop) {
    // We are the joiner's root: our leaf set seeds theirs.
    auto reply = std::make_unique<JoinReply>();
    reply->state = std::move(req.collected);
    for (const auto& r : leaves_.all()) reply->state.push_back(r);
    network_.send(self_.endpoint, req.joiner.endpoint, std::move(reply));
    return;
  }
  auto fwd = std::make_unique<JoinRequest>();
  fwd->joiner = req.joiner;
  fwd->hops = req.hops + 1;
  fwd->collected = std::move(req.collected);
  network_.send(self_.endpoint, hop->endpoint, std::move(fwd));
}

void PastryNode::handle_join_reply(const JoinReply& reply) {
  if (join_reply_seen_) {
    // Duplicated (or second-root) join reply: we already consumed one.
    // Running the loop again would re-announce to every collected node
    // and re-count the join.  Only this counter appears: a duplicate does
    // not bind the node's metrics.
    if (auto* reg = network_.engine().metrics()) {
      reg->fed().counter<"pastry.dup_join_replies">().inc();
    }
    return;
  }
  join_reply_seen_ = true;
  for (const auto& r : reply.state) {
    learn(r);
    // Announce ourselves so existing members add us symmetrically.
    auto ann = std::make_unique<StateAnnounce>();
    ann->node = self_;
    network_.send(self_.endpoint, r.endpoint, std::move(ann));
  }
  joined_ = true;
  if (auto* registry = metrics()) registry->fed().counter<"pastry.joins">().inc();
}

void PastryNode::on_envelope(net::Envelope env) {
  net::Payload& payload = *env.payload;
  if (util::msg_as<RouteEnvelope>(payload) != nullptr) {
    handle_route(std::unique_ptr<RouteEnvelope>(
        static_cast<RouteEnvelope*>(env.payload.release())));
  } else if (auto* direct = util::msg_as<DirectEnvelope>(payload)) {
    if (auto* app = find_app(direct->app)) {
      app->receive(direct->sender, *direct->msg);
    }
  } else if (auto* join_req = util::msg_as<JoinRequest>(payload)) {
    handle_join_request(*join_req);
  } else if (auto* join_reply = util::msg_as<JoinReply>(payload)) {
    handle_join_reply(*join_reply);
  } else if (auto* ann = util::msg_as<StateAnnounce>(payload)) {
    learn(ann->node);
  } else {
    RBAY_WARN("pastry", "unknown payload type " << env.payload->type_name());
  }
}

}  // namespace rbay::pastry
