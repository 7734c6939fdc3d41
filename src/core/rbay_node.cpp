#include "core/rbay_node.hpp"

#include <algorithm>

#include "core/query_interface.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace rbay::core {

namespace {
const std::vector<TreeSpec> kNoSpecs{};
}

RBayNode::RBayNode(pastry::Overlay& overlay, net::SiteId site, std::string admin,
                   RBayNodeConfig config)
    : admin_(std::move(admin)),
      pastry_(overlay.create_node(site)),
      scribe_(pastry_, config.scribe),
      config_(config) {
  query_ = std::make_unique<QueryInterface>(*this, config_.query);
  // Root replicas carry the reservation holders active at each node so a
  // promoted standby knows which queries held slots before the crash.
  scribe_.set_reservation_reporter([this]() {
    std::vector<std::string> holders;
    if (!lock_.holder().empty()) holders.push_back(lock_.holder());
    return holders;
  });
  if (config_.maintenance_interval > util::SimTime::zero()) {
    maintenance_timer_ = engine().schedule_periodic(config_.maintenance_interval,
                                                    [this]() { maintenance(); });
  }
}

RBayNode::~RBayNode() { maintenance_timer_.cancel(); }

QueryInterface& RBayNode::query() { return *query_; }

// --- resources --------------------------------------------------------------

util::Result<void> RBayNode::post(const std::string& name, store::AttributeValue value,
                                  const std::string& handler_source) {
  store_.put(name, std::move(value));
  if (!handler_source.empty()) {
    auto attached = store_.attach_handlers(name, handler_source, config_.sandbox);
    if (!attached.ok()) {
      store_.remove(name);
      return util::make_error(attached.error());
    }
    // Handlers read the federation's virtual clock through `now`.
    store_.find(name)->set_clock(
        [this]() { return engine().now().as_seconds(); });
  }
  reevaluate_subscriptions();
  return {};
}

void RBayNode::remove_attribute(const std::string& name) {
  store_.remove(name);
  hidden_.erase(name);
  reevaluate_subscriptions();
}

void RBayNode::set_hidden(const std::string& name, bool hidden) {
  if (hidden) {
    hidden_.insert(name);
  } else {
    hidden_.erase(name);
  }
  reevaluate_subscriptions();
}

bool RBayNode::is_hidden(const std::string& name) const { return hidden_.count(name) != 0; }

// --- federation wiring ---------------------------------------------------------

void RBayNode::set_tree_specs(std::shared_ptr<const std::vector<TreeSpec>> specs) {
  tree_specs_ = std::move(specs);
}

void RBayNode::set_taxonomy(std::shared_ptr<const Taxonomy> taxonomy) {
  taxonomy_ = std::move(taxonomy);
}

void RBayNode::set_directory(std::shared_ptr<const Directory> directory) {
  directory_ = std::move(directory);
}

const std::vector<TreeSpec>& RBayNode::tree_specs() const {
  return tree_specs_ ? *tree_specs_ : kNoSpecs;
}

void RBayNode::enable_monitor(std::vector<monitor::MetricSpec> metrics,
                              util::SimTime interval) {
  // The fork draws from the calling context's Rng (setup: the control
  // stream); ticks then use the monitor's own
  // stream, so pinning the tick timer to this node's site shard below does
  // not perturb any other draw sequence.
  monitor_ = std::make_unique<monitor::ResourceMonitor>(store_, engine().rng().fork());
  for (auto& m : metrics) monitor_->add_metric(std::move(m));
  monitor_->on_tick = [this]() { reevaluate_subscriptions(); };
  sim::Engine::ShardScope scope(engine(), engine().shard_for_site(site()));
  monitor_->start(engine(), interval);
}

// --- tree membership --------------------------------------------------------------

scribe::TopicId RBayNode::topic_of(const TreeSpec& spec) const {
  const std::string site_name = directory_ && site() < directory_->site_names.size()
                                    ? directory_->site_names[site()]
                                    : "site" + std::to_string(site());
  return site_topic(spec.canonical, site_name);
}

bool RBayNode::store_matches(const query::Predicate& pred) const {
  if (hidden_.count(pred.attribute) != 0) return false;
  const auto* attr = store_.find(pred.attribute);
  if (attr == nullptr) return false;
  return pred.matches(attr->value());
}

bool RBayNode::subscribed_to(const TreeSpec& spec) const {
  return subscribed_canonicals_.count(spec.canonical) != 0;
}

std::pair<int, int> RBayNode::reevaluate_subscriptions() {
  int joins = 0;
  int leaves = 0;
  for (const auto& spec : tree_specs()) {
    const auto topic = topic_of(spec);
    const bool member = scribe_.subscribed(topic);
    const bool matches = store_matches(spec.predicate);
    auto* attr = store_.find(spec.predicate.attribute);
    if (!member) {
      if (!matches) continue;
      // "onSubscribe ... returns the value that determines whether joining
      // the topic tree" — the admin's policy gates exposure.
      const bool allowed = attr == nullptr || attr->on_subscribe(admin_, spec.canonical);
      if (allowed) {
        scribe_.subscribe(topic, this, nullptr, pastry::Scope::Site);
        subscribed_canonicals_.insert(spec.canonical);
        ++joins;
      }
    } else {
      bool leave = !matches;
      if (!leave && attr != nullptr && attr->has_handler(store::AAEvent::kOnUnsubscribe)) {
        leave = attr->on_unsubscribe(admin_, spec.canonical);
      }
      if (leave) {
        scribe_.unsubscribe(topic);
        subscribed_canonicals_.erase(spec.canonical);
        ++leaves;
      }
    }
  }
  return {joins, leaves};
}

void RBayNode::maintenance() {
  store_.fire_timers();
  reevaluate_subscriptions();
}

// --- admin commands -----------------------------------------------------------------

void RBayNode::admin_deliver(const TreeSpec& spec, const std::string& attribute,
                             const std::string& payload) {
  scribe_.multicast(topic_of(spec), "deliver|" + attribute + "|" + payload,
                    pastry::Scope::Site);
}

void RBayNode::admin_set_hidden(const TreeSpec& spec, const std::string& attribute,
                                bool hidden) {
  scribe_.multicast(topic_of(spec), std::string(hidden ? "hide|" : "expose|") + attribute,
                    pastry::Scope::Site);
}

void RBayNode::on_multicast(const scribe::TopicId& /*topic*/, const std::string& data) {
  // Command format: "<verb>|<attribute>[|<payload>]".
  const auto first = data.find('|');
  if (first == std::string::npos) {
    RBAY_WARN("rbay", "malformed admin command: " << data);
    return;
  }
  const std::string verb = data.substr(0, first);
  const auto second = data.find('|', first + 1);
  const std::string attribute =
      second == std::string::npos ? data.substr(first + 1) : data.substr(first + 1, second - first - 1);
  const std::string payload = second == std::string::npos ? "" : data.substr(second + 1);

  if (verb == "deliver") {
    if (auto* attr = store_.find(attribute)) {
      auto result = attr->on_deliver(admin_, aal::Value::string(payload));
      if (!result.ok()) {
        RBAY_WARN("rbay", "onDeliver failed for " << attribute << ": " << result.error());
      }
    }
    return;
  }
  if (verb == "hide") {
    set_hidden(attribute, true);
    return;
  }
  if (verb == "expose") {
    set_hidden(attribute, false);
    return;
  }
  RBAY_WARN("rbay", "unknown admin command verb: " << verb);
}

// --- anycast candidate filling (Fig. 7, step 4) ------------------------------------------

bool RBayNode::authorize_get(const std::vector<query::Predicate>& predicates,
                             const std::string& caller, const std::string& payload) {
  for (const auto& pred : predicates) {
    auto* attr = store_.find(pred.attribute);
    if (attr == nullptr || !attr->has_handler(store::AAEvent::kOnGet)) continue;
    ++gets_served_;
    auto result = attr->on_get(caller, aal::Value::string(payload));
    // A handler error or a nil return denies access (fail-closed).
    if (!result.ok() || result.value().is_nil()) return false;
  }
  return true;
}

bool RBayNode::on_anycast(const scribe::TopicId& /*topic*/, scribe::AnycastPayload& payload) {
  auto* request = dynamic_cast<CandidatePayload*>(&payload);
  if (request == nullptr) return false;
  auto* reg = engine().metrics();
  if (reg != nullptr) reg->fed().counter("query.member_checks").inc();
  const auto want = static_cast<std::size_t>(request->k);
  if (request->found.size() >= want) return true;

  // (i) check the remaining predicates against the local key-value map.
  for (const auto& pred : request->predicates) {
    if (!store_matches(pred)) return false;
  }
  // (ii) trigger the AA handlers to check the query's authorization.
  if (!authorize_get(request->predicates, request->query_id, request->get_payload)) {
    return false;
  }
  // Reserve the node for this query; an existing reservation by another
  // query makes this node unavailable (the conflict the backoff handles).
  if (!lock_.try_reserve(request->query_id, engine().now(), request->hold)) {
    if (reg != nullptr) {
      reg->fed().counter("query.conflicts").inc();
      reg->causal().local(site(), self().endpoint, "query.conflict", engine().now(),
                          static_cast<int>(obs::Phase::kSlotFill));
    }
    return false;
  }
  if (reg != nullptr) {
    reg->fed().counter("query.slots_filled").inc();
    // Causal point for step 4b; the hop-attribution test cross-checks its
    // count against the SlotFill span's hops.
    reg->causal().local(site(), self().endpoint, "query.slot_fill", engine().now(),
                        static_cast<int>(obs::Phase::kSlotFill));
  }

  Candidate candidate{self()};
  if (request->group_by) {
    if (const auto* attr = store_.find(*request->group_by)) {
      candidate.has_sort_value = attr->value().numeric(candidate.sort_value);
    }
  }
  request->found.push_back(std::move(candidate));
  return request->found.size() >= want;
}

double RBayNode::aggregate_contribution(const scribe::TopicId& /*topic*/) { return 1.0; }

}  // namespace rbay::core
