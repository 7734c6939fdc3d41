#include "core/rbay_node.hpp"

#include <algorithm>

#include "core/query_interface.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/msg_tag.hpp"

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
    auto attached = store_.attach_handlers(name, handler_source);
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

void RBayNode::set_tree_table(std::shared_ptr<const TreeTable> trees) {
  trees_ = std::move(trees);
  subscribed_.assign(tree_specs().size(), false);
}

void RBayNode::set_taxonomy(std::shared_ptr<const Taxonomy> taxonomy) {
  taxonomy_ = std::move(taxonomy);
}

void RBayNode::set_directory(std::shared_ptr<const Directory> directory) {
  directory_ = std::move(directory);
}

const std::vector<TreeSpec>& RBayNode::tree_specs() const {
  return trees_ ? trees_->specs() : kNoSpecs;
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

scribe::TopicId RBayNode::topic_of(const std::string& canonical) const {
  if (trees_ != nullptr) {
    if (const auto spec = trees_->spec_index(canonical)) return trees_->topic(*spec, site());
  }
  const std::string site_name = directory_ && site() < directory_->site_names.size()
                                    ? directory_->site_names[site()]
                                    : "site" + std::to_string(site());
  return site_topic(canonical, site_name);
}

bool RBayNode::attr_matches(const store::ActiveAttribute* attr,
                            const query::Predicate& pred) const {
  if (hidden_.count(pred.attribute) != 0) return false;
  if (attr == nullptr) return false;
  return pred.matches(attr->value());
}

bool RBayNode::subscribed_to(const TreeSpec& spec) const {
  if (trees_ == nullptr) return false;
  const auto index = trees_->spec_index(spec.canonical);
  return index && subscribed_[*index];
}

std::pair<int, int> RBayNode::reevaluate_subscriptions() {
  int joins = 0;
  int leaves = 0;
  const auto& specs = tree_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    const auto& topic = trees_->topic(i, site());
    const bool member = scribe_.subscribed(topic);
    auto* attr = store_.find(spec.predicate.attribute);
    const bool matches = attr_matches(attr, spec.predicate);
    if (!member) {
      if (!matches) continue;
      // "onSubscribe ... returns the value that determines whether joining
      // the topic tree" — the admin's policy gates exposure.
      const bool allowed = attr == nullptr || attr->on_subscribe(admin_, spec.canonical);
      if (allowed) {
        scribe_.subscribe(topic, this);
        subscribed_[i] = true;
        ++joins;
      }
    } else {
      bool leave = !matches;
      if (!leave && attr != nullptr && attr->has_handler(store::AAEvent::kOnUnsubscribe)) {
        leave = attr->on_unsubscribe(admin_, spec.canonical);
      }
      if (leave) {
        scribe_.unsubscribe(topic);
        subscribed_[i] = false;
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
  scribe_.multicast(topic_of(spec), "deliver|" + attribute + "|" + payload);
}

void RBayNode::admin_set_hidden(const TreeSpec& spec, const std::string& attribute,
                                bool hidden) {
  scribe_.multicast(topic_of(spec), std::string(hidden ? "hide|" : "expose|") + attribute);
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
                             const query::QueryId& caller, const std::string& payload) {
  std::string caller_text;  // formatted only when a handler runs
  for (const auto& pred : predicates) {
    auto* attr = store_.find(pred.attribute);
    if (attr == nullptr || !attr->has_handler(store::AAEvent::kOnGet)) continue;
    ++gets_served_;
    if (caller_text.empty()) caller_text = to_string(caller);
    auto result = attr->on_get(caller_text, aal::Value::string(payload));
    // A handler error or a nil return denies access (fail-closed).
    if (!result.ok() || result.value().is_nil()) return false;
  }
  return true;
}

bool RBayNode::on_anycast(const scribe::TopicId& /*topic*/, scribe::AnycastPayload& payload) {
  auto* request = util::msg_as<CandidatePayload>(payload);
  if (request == nullptr) return false;
  auto* reg = engine().metrics();
  if (reg != nullptr) reg->fed().counter<"query.member_checks">().inc();
  const auto& job = request->job;
  const auto want = static_cast<std::size_t>(job.k);
  if (request->found.size() >= want) return true;

  // (i) check the remaining predicates against the local key-value map.
  for (const auto& pred : job.predicates) {
    if (!store_matches(pred)) return false;
  }
  // (ii) trigger the AA handlers to check the query's authorization.
  if (!authorize_get(job.predicates, job.query_id, job.get_payload)) {
    return false;
  }
  // Reserve the node for this query; an existing reservation by another
  // query makes this node unavailable (the conflict the backoff handles).
  if (!lock_.try_reserve(job.query_id, engine().now(), job.hold, job.attempt)) {
    if (reg != nullptr) {
      reg->fed().counter<"query.conflicts">().inc();
      reg->causal().local(site(), self().endpoint, "query.conflict", engine().now(),
                          static_cast<int>(obs::Phase::kSlotFill));
    }
    return false;
  }
  if (reg != nullptr) {
    reg->fed().counter<"query.slots_filled">().inc();
    // Causal point for step 4b; the hop-attribution test cross-checks its
    // count against the SlotFill span's hops.
    reg->causal().local(site(), self().endpoint, "query.slot_fill", engine().now(),
                        static_cast<int>(obs::Phase::kSlotFill));
  }

  Candidate candidate{self()};
  if (job.group_by) {
    if (const auto* attr = store_.find(*job.group_by)) {
      candidate.has_sort_value = attr->value().numeric(candidate.sort_value);
    }
  }
  request->found.push_back(std::move(candidate));
  return request->found.size() >= want;
}

}  // namespace rbay::core
