#pragma once

// RBayNode: the per-server RBAY agent (Fig. 4).
//
// Composes the three architectural components of the paper: the routing
// substrate (Pastry node), the key-value map (AttributeStore of Active
// Attributes), and the AA runtime (AAL sandbox, driven through the store).
// On top it manages tree membership: for every federation TreeSpec the
// node periodically checks "does my store satisfy the predicate, and does
// the admin's onSubscribe/onUnsubscribe policy allow it?", subscribing or
// leaving accordingly — exactly the churn loop the paper describes for
// the CPU_utilization<10% tree.

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "core/naming.hpp"
#include "core/query_config.hpp"
#include "monitor/monitor.hpp"
#include "pastry/overlay.hpp"
#include "query/reservation.hpp"
#include "scribe/scribe.hpp"
#include "store/attribute_store.hpp"

namespace rbay::core {

class QueryInterface;

struct RBayNodeConfig {
  scribe::ScribeConfig scribe;
  QueryConfig query;
  /// Re-evaluate subscriptions / fire onTimer every this often (zero: only
  /// on demand).
  util::SimTime maintenance_interval = util::SimTime::zero();
};

class RBayNode final : public scribe::TopicMember {
 public:
  /// Creates the node inside `overlay` at `site`.  `admin` names the
  /// owning administrator (used in logs and handler callbacks).
  RBayNode(pastry::Overlay& overlay, net::SiteId site, std::string admin,
           RBayNodeConfig config = {});
  ~RBayNode() override;

  RBayNode(const RBayNode&) = delete;
  RBayNode& operator=(const RBayNode&) = delete;

  // --- identity -----------------------------------------------------------
  [[nodiscard]] pastry::PastryNode& pastry() { return pastry_; }
  [[nodiscard]] const pastry::NodeRef& self() const { return pastry_.self(); }
  [[nodiscard]] net::SiteId site() const { return pastry_.self().site; }
  [[nodiscard]] const std::string& admin() const { return admin_; }
  [[nodiscard]] scribe::Scribe& scribe() { return scribe_; }
  [[nodiscard]] QueryInterface& query();
  [[nodiscard]] sim::Engine& engine() { return pastry_.network().engine(); }

  // --- resources (the admin "posts" to RBAY, eBay-style) -------------------
  /// Adds/replaces an attribute; optional AAL handler source attaches the
  /// admin's policy.  Triggers a subscription re-evaluation.
  util::Result<void> post(const std::string& name, store::AttributeValue value,
                          const std::string& handler_source = "");

  /// Removes an attribute and leaves trees that depended on it.
  void remove_attribute(const std::string& name);

  /// Hide/expose without removing: hidden attributes never match
  /// predicates (the admin's "which resource to expose" control).
  void set_hidden(const std::string& name, bool hidden);
  [[nodiscard]] bool is_hidden(const std::string& name) const;

  [[nodiscard]] store::AttributeStore& attributes() { return store_; }
  [[nodiscard]] const store::AttributeStore& attributes() const { return store_; }

  // --- federation wiring (done by RBayCluster) ------------------------------
  void set_tree_table(std::shared_ptr<const TreeTable> trees);
  void set_taxonomy(std::shared_ptr<const Taxonomy> taxonomy);
  void set_directory(std::shared_ptr<const Directory> directory);
  [[nodiscard]] const std::vector<TreeSpec>& tree_specs() const;
  /// The federation's TreeId table, or nullptr before finalize.
  [[nodiscard]] const TreeTable* tree_table() const { return trees_.get(); }
  [[nodiscard]] const Taxonomy* taxonomy() const { return taxonomy_.get(); }
  [[nodiscard]] const Directory* directory() const { return directory_.get(); }

  /// Synthetic monitoring feed (libvirt stand-in); each tick re-evaluates
  /// subscriptions.
  void enable_monitor(std::vector<monitor::MetricSpec> metrics, util::SimTime interval);
  [[nodiscard]] monitor::ResourceMonitor* monitor() { return monitor_.get(); }

  // --- tree membership ------------------------------------------------------
  /// Checks every TreeSpec against the local store + AA policy and
  /// joins/leaves accordingly.  Returns (joins, leaves) performed.
  std::pair<int, int> reevaluate_subscriptions();

  /// Fires onTimer on all attributes and re-evaluates (the paper's periodic
  /// maintenance driven by the onTimer interval).
  void maintenance();

  [[nodiscard]] bool subscribed_to(const TreeSpec& spec) const;
  /// TreeId of the tree for predicate `canonical` in this node's site (from
  /// the tree table when `canonical` names a spec).
  [[nodiscard]] scribe::TopicId topic_of(const std::string& canonical) const;
  [[nodiscard]] scribe::TopicId topic_of(const TreeSpec& spec) const {
    return topic_of(spec.canonical);
  }

  // --- admin commands ---------------------------------------------------------
  /// Multicasts an onDeliver command to every member of `spec`'s tree in
  /// this node's site: each member runs `attribute`'s onDeliver handler
  /// with `payload` (e.g. new rental price, new expiration time).
  void admin_deliver(const TreeSpec& spec, const std::string& attribute,
                     const std::string& payload);

  /// Multicasts hide/expose of an attribute to the tree members.
  void admin_set_hidden(const TreeSpec& spec, const std::string& attribute, bool hidden);

  // --- reservations (used by the query plane) -----------------------------------
  [[nodiscard]] query::ReservationLock& lock() { return lock_; }

  /// Count of onGet invocations served (observability for benches).
  [[nodiscard]] std::uint64_t gets_served() const { return gets_served_; }

  // --- scribe::TopicMember --------------------------------------------------------
  void on_multicast(const scribe::TopicId& topic, const std::string& data) override;
  bool on_anycast(const scribe::TopicId& topic, scribe::AnycastPayload& payload) override;

 private:
  friend class QueryInterface;

  /// True if the local store satisfies `pred` (hidden attributes never
  /// match; missing attributes never match).
  [[nodiscard]] bool store_matches(const query::Predicate& pred) const {
    return attr_matches(store_.find(pred.attribute), pred);
  }
  /// store_matches for `attr`, the store's entry for `pred.attribute`.
  [[nodiscard]] bool attr_matches(const store::ActiveAttribute* attr,
                                  const query::Predicate& pred) const;

  /// Runs the onGet gate for every predicate attribute with a handler;
  /// the handler's `caller` is `to_string(caller)`.
  [[nodiscard]] bool authorize_get(const std::vector<query::Predicate>& predicates,
                                   const query::QueryId& caller, const std::string& payload);

  std::string admin_;
  pastry::PastryNode& pastry_;
  scribe::Scribe scribe_;
  store::AttributeStore store_;
  query::ReservationLock lock_;
  std::unique_ptr<QueryInterface> query_;
  std::unique_ptr<monitor::ResourceMonitor> monitor_;
  RBayNodeConfig config_;

  std::shared_ptr<const TreeTable> trees_;
  std::shared_ptr<const Taxonomy> taxonomy_;
  std::shared_ptr<const Directory> directory_;
  std::set<std::string> hidden_;
  std::vector<bool> subscribed_;  // per spec index: joined its tree here
  sim::Timer maintenance_timer_;
  std::uint64_t gets_served_ = 0;
};

}  // namespace rbay::core
