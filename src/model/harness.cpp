#include "model/harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/cluster.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "obs/export_chrome.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace rbay::model {

namespace {

std::string fmt_count(double v) {
  return std::to_string(static_cast<long long>(std::llround(v)));
}

std::string fmt_ms(util::SimTime t) {
  std::ostringstream os;
  os << t.as_millis() << "ms";
  return os.str();
}

std::string join_sites(const std::vector<net::SiteId>& sites) {
  if (sites.empty()) return "-";
  std::ostringstream os;
  for (std::size_t i = 0; i < sites.size(); ++i) os << (i > 0 ? "," : "") << "Site" << sites[i];
  return os.str();
}

std::string join_nodes(const std::vector<std::size_t>& nodes) {
  if (nodes.empty()) return "-";
  std::ostringstream os;
  for (std::size_t i = 0; i < nodes.size(); ++i) os << (i > 0 ? "," : "") << "n" << nodes[i];
  return os.str();
}

std::vector<std::string> make_site_names(const WorkloadSpec& spec) {
  std::vector<std::string> names;
  names.reserve(spec.sites);
  for (std::size_t s = 0; s < spec.sites; ++s) names.push_back("Site" + std::to_string(s));
  return names;
}

/// The scenario probe a god-view membership audit compiles down to: one
/// site-local SELECT COUNT per (tree, site).  The existence tree's real
/// predicate uses the unprintable \x01<none> sentinel; `attr != zzz_none`
/// is observably equivalent (no store ever holds that word) and resolves
/// to the same tree through the taxonomy (the attr is its own major).
query::Query probe_query(const core::TreeSpec& spec, net::SiteId site) {
  query::Query q;
  q.count_only = true;
  q.sites.push_back("Site" + std::to_string(site));
  if (spec.canonical.rfind("has:", 0) == 0) {
    query::Predicate p;
    p.attribute = spec.predicate.attribute;
    p.op = query::CompareOp::NotEq;
    p.literal = store::AttributeValue{std::string("zzz_none")};
    q.predicates.push_back(std::move(p));
  } else {
    q.predicates.push_back(spec.predicate);
  }
  return q;
}

/// One committed SELECT outcome a later ReleaseOlder op can target.
struct LiveCommit {
  std::size_t origin = 0;
  core::QueryOutcome outcome;
  std::vector<std::size_t> nodes;  // cluster indexes of the candidates
  int export_query = 0;            // 1-based `use-query` number in the export
  bool released = false;
};

class Execution {
 public:
  Execution(const Workload& workload, const RunOptions& options)
      : workload_(workload),
        spec_(workload.spec),
        options_(options),
        model_(make_site_names(workload.spec), workload_tree_specs(), workload_taxonomy()) {}

  RunResult run(const std::vector<Op>& ops) {
    setup();
    for (std::size_t i = 0; i < ops.size() && !result_.divergence.found; ++i) {
      apply(i, ops[i]);
      cross_check_faults(i, ops[i]);
    }
    std::ostringstream os;
    os << "ops=" << result_.ops_applied << "/" << ops.size()
       << " skipped=" << result_.ops_skipped << " queries=" << result_.queries
       << " commits=" << result_.commits << " divergence="
       << (result_.divergence.found ? result_.divergence.kind + "@op" +
                                          std::to_string(result_.divergence.op_index)
                                    : std::string("none"));
    result_.summary = os.str();
    result_.scenario = std::move(scenario_);
    return std::move(result_);
  }

 private:
  // --- construction ----------------------------------------------------------

  void setup() {
    core::ClusterConfig config;
    config.topology = net::Topology::uniform(spec_.sites, spec_.intra_ms, spec_.cross_ms);
    config.seed = spec_.seed;
    config.engine = spec_.engine;
    config.metrics = options_.metrics;
    config.node.scribe.aggregation_interval = spec_.aggregation;
    config.node.scribe.heartbeat_interval = spec_.heartbeat;
    config.node.scribe.anycast_timeout = spec_.anycast_timeout;
    config.node.query.site_timeout = spec_.site_timeout;
    config.node.query.reservation_hold = spec_.reservation_hold;
    config.node.query.max_attempts = spec_.max_attempts;
    config.node.query.qplane.cache_ttl = spec_.cache_ttl;
    config.node.query.qplane.batch_probes = spec_.batch_probes;
    config.node.scribe.fan_in_cap = spec_.fan_in_cap;
    config.node.scribe.root_set = spec_.root_set;
    cluster_ = std::make_unique<core::RBayCluster>(config);
    for (auto spec : workload_tree_specs()) cluster_->add_tree_spec(std::move(spec));
    cluster_->set_taxonomy(workload_taxonomy());

    emit("# seed " + std::to_string(spec_.seed) + " — exported by the differential oracle");
    emit("# expects encode the reference model's predictions: a replay failure");
    emit("# reproduces the model/sim divergence (docs/TESTING.md).");
    {
      std::ostringstream os;
      os << "topology uniform " << spec_.sites << " " << spec_.intra_ms << " " << spec_.cross_ms;
      emit(os.str());
    }
    emit("seed " + std::to_string(spec_.seed));
    emit("aggregation " + std::to_string(static_cast<long long>(spec_.aggregation.as_millis())));
    emit("heartbeat " + std::to_string(static_cast<long long>(spec_.heartbeat.as_millis())));
    emit("anycast-timeout " +
         std::to_string(static_cast<long long>(spec_.anycast_timeout.as_millis())));
    emit("site-timeout " + std::to_string(static_cast<long long>(spec_.site_timeout.as_millis())));
    emit("reservation-hold " +
         std::to_string(static_cast<long long>(spec_.reservation_hold.as_millis())));
    emit("max-attempts " + std::to_string(spec_.max_attempts));
    emit("cache-ttl " + std::to_string(static_cast<long long>(spec_.cache_ttl.as_millis())));
    emit(std::string("batch-probes ") + (spec_.batch_probes ? "on" : "off"));
    emit("fan-in-cap " + std::to_string(spec_.fan_in_cap));
    emit("root-set " + std::to_string(spec_.root_set));
    for (const auto& ts : workload_tree_specs()) {
      if (ts.canonical.rfind("has:", 0) == 0) {
        emit("tree-exists " + ts.predicate.attribute);
      } else {
        emit("tree " + ts.predicate.attribute + " " +
             std::string(query::compare_op_name(ts.predicate.op)) + " " +
             ts.predicate.literal.to_string());
      }
    }
    emit("taxonomy-major brand");
    emit("taxonomy-link model brand");

    for (net::SiteId s = 0; s < spec_.sites; ++s) {
      emit("nodes Site" + std::to_string(s) + " " + std::to_string(spec_.per_site));
      for (std::size_t i = 0; i < spec_.per_site; ++i) {
        cluster_->add_node(s);
        model_.add_node(s);
      }
    }
    for (const auto& op : workload_.setup) {
      RBAY_REQUIRE(op.kind == OpKind::Post, "setup ops must be posts");
      auto posted = cluster_->node(op.node).post(op.attr, op.value);
      RBAY_REQUIRE(posted.ok(), "setup post rejected");
      model_.post(op.node, op.attr, op.value);
      emit("post " + site_target(spec_, op.node) + " " + op.attr + " " + op.value.to_string());
    }
    cluster_->finalize();
    emit("finalize");

    injector_ = std::make_unique<fault::FaultInjector>(*cluster_);
    injector_->on_apply = [this](const fault::FaultAction& action,
                                 const std::vector<std::size_t>& victims) {
      model_.apply_fault(action, victims);
    };
    settle();
  }

  // --- pacing ----------------------------------------------------------------

  /// Quiesce before an observation (and for warm-up): membership and
  /// aggregates converge, in-flight repairs drain.  Mirrors the scenario
  /// `run` directive exactly (run_for then drain).
  void settle() {
    cluster_->run_for(spec_.settle);
    cluster_->run();
    emit("run " + fmt_ms(spec_.settle));
  }

  /// Short gap after a mutation/fault so back-to-back mutations are
  /// distinct events rather than one batch.
  void gap() {
    cluster_->run_for(util::SimTime::millis(20));
    cluster_->run();
    emit("run 20ms");
  }

  // --- op application --------------------------------------------------------

  /// The one skip rule, applied identically on sim, model, and (by
  /// omission from the export) replay: node-targeted ops on a currently
  /// crashed node do not happen.
  bool skip_crashed(const Op& op) {
    if (!model_.crashed(op.node)) return false;
    ++result_.ops_skipped;
    return true;
  }

  void apply(std::size_t i, const Op& op) {
    switch (op.kind) {
      case OpKind::Post: {
        if (skip_crashed(op)) return;
        ++result_.ops_applied;
        auto posted = cluster_->node(op.node).post(op.attr, op.value);
        if (!posted.ok()) {
          diverge(i, op, "query-error", "post rejected: " + posted.error());
          return;
        }
        model_.post(op.node, op.attr, op.value);
        emit("post " + site_target(spec_, op.node) + " " + op.attr + " " + op.value.to_string());
        gap();
        return;
      }
      case OpKind::WriteBurst: {
        if (skip_crashed(op)) return;
        ++result_.ops_applied;
        // Every post lands at one instant: no run between them.
        for (const auto& value : op.burst) {
          auto posted = cluster_->node(op.node).post(op.attr, value);
          if (!posted.ok()) {
            diverge(i, op, "query-error", "post rejected: " + posted.error());
            return;
          }
          model_.post(op.node, op.attr, value);
          emit("post " + site_target(spec_, op.node) + " " + op.attr + " " + value.to_string());
        }
        gap();
        return;
      }
      case OpKind::Remove: {
        if (skip_crashed(op)) return;
        ++result_.ops_applied;
        cluster_->node(op.node).remove_attribute(op.attr);
        model_.remove_attribute(op.node, op.attr);
        emit("remove " + site_target(spec_, op.node) + " " + op.attr);
        gap();
        return;
      }
      case OpKind::Hide:
      case OpKind::Expose: {
        if (skip_crashed(op)) return;
        ++result_.ops_applied;
        const bool hide = op.kind == OpKind::Hide;
        cluster_->node(op.node).set_hidden(op.attr, hide);
        cluster_->run();
        model_.set_hidden(op.node, op.attr, hide);
        emit(std::string(hide ? "hide " : "expose ") + site_target(spec_, op.node) + " " +
             op.attr);
        gap();
        return;
      }
      case OpKind::AdminHide:
      case OpKind::AdminExpose: {
        ++result_.ops_applied;
        // Settle first so the multicast's delivery set — the members at
        // send time — is the same store-driven set on both sides.
        settle();
        const bool hide = op.kind == OpKind::AdminHide;
        const core::TreeSpec* ts = nullptr;
        for (const auto& s : model_.specs()) {
          if (s.canonical == op.canonical) ts = &s;
        }
        RBAY_REQUIRE(ts != nullptr, "admin op names unknown tree");
        model_.multicast_set_hidden(op.site_a, *ts, op.attr, hide);
        const auto gateway = cluster_->nodes_in_site(op.site_a).front();
        cluster_->node(gateway).admin_set_hidden(*ts, op.attr, hide);
        cluster_->run();
        emit(std::string(hide ? "admin-hide" : "admin-expose") + " Site" +
             std::to_string(op.site_a) + " " + op.canonical + " " + op.attr);
        gap();
        return;
      }
      case OpKind::Crash: {
        if (skip_crashed(op)) return;  // already down
        ++result_.ops_applied;
        cluster_->overlay().fail_node(op.node);
        cluster_->run();
        model_.crash(op.node);
        emit("fail " + site_name_of(spec_, op.node) + " " +
             std::to_string(op.node % spec_.per_site));
        gap();
        return;
      }
      case OpKind::Recover: {
        if (!model_.crashed(op.node)) {  // already up
          ++result_.ops_skipped;
          return;
        }
        ++result_.ops_applied;
        cluster_->overlay().recover_node(op.node);
        cluster_->node(op.node).reevaluate_subscriptions();
        cluster_->run();
        model_.recover(op.node);
        emit("recover " + site_name_of(spec_, op.node) + " " +
             std::to_string(op.node % spec_.per_site));
        gap();
        return;
      }
      case OpKind::Outage: {
        if (skip_crashed(op)) return;  // already down
        Op down = op;
        down.kind = OpKind::Crash;
        apply(i, down);
        // Six beats: past Scribe's miss budget, so the parent prunes the
        // node while it is down.
        const auto outage = spec_.heartbeat * std::int64_t{6};
        cluster_->run_for(outage);
        cluster_->run();
        emit("run " + fmt_ms(outage));
        Op up = op;
        up.kind = OpKind::Recover;
        apply(i, up);
        return;
      }
      case OpKind::Partition:
      case OpKind::Heal: {
        ++result_.ops_applied;
        // Network faults go through the real injector; its on_apply hook
        // is what mirrors the action into the model.
        fault::FaultAction action;
        action.at = util::SimTime::zero();
        action.kind = op.kind == OpKind::Partition ? fault::ActionKind::Partition
                                                   : fault::ActionKind::Heal;
        action.site_a = "Site" + std::to_string(op.site_a);
        action.site_b = "Site" + std::to_string(op.site_b);
        fault::FaultSchedule schedule;
        schedule.actions.push_back(action);
        auto armed = injector_->arm(schedule);
        if (!armed.ok()) {
          diverge(i, op, "query-error", "injector refused action: " + armed.error());
          return;
        }
        emit("fault-schedule <<FS");
        emit("at 0ms " + std::string(op.kind == OpKind::Partition ? "partition" : "heal") + " " +
             action.site_a + " " + action.site_b);
        emit("FS");
        gap();  // the armed background action fires inside this run_for
        return;
      }
      case OpKind::Weather:
      case OpKind::WeatherClear: {
        ++result_.ops_applied;
        // Weather goes through the real injector so the applied-action log
        // and fault.weather metric see the same schedule the sim ran; the
        // reference model treats it as a no-op (delivery, not truth).
        fault::FaultAction action;
        action.at = util::SimTime::zero();
        action.kind = fault::ActionKind::Weather;
        if (op.kind == OpKind::WeatherClear) {
          action.weather = fault::WeatherKind::Clear;
          action.site_a = "*";
          action.site_b = "*";
        } else {
          action.weather = op.weather_kind;
          action.site_a = "Site" + std::to_string(op.site_a);
          action.site_b = "Site" + std::to_string(op.site_b);
          action.value = op.w1;
          action.value2 = op.w2;
          action.value3 = op.w3;
          action.window = op.window;
        }
        fault::FaultSchedule schedule;
        schedule.actions.push_back(action);
        auto armed = injector_->arm(schedule);
        if (!armed.ok()) {
          diverge(i, op, "query-error", "injector refused action: " + armed.error());
          return;
        }
        emit("fault-schedule <<FS");
        emit(fault::describe(action));
        emit("FS");
        gap();  // the armed background action fires inside this run_for
        return;
      }
      case OpKind::Count:
        if (skip_crashed(op)) return;
        ++result_.ops_applied;
        run_count(i, op);
        return;
      case OpKind::CountStorm:
        if (skip_crashed(op)) return;
        ++result_.ops_applied;
        run_count_storm(i, op);
        return;
      case OpKind::Select:
        if (skip_crashed(op)) return;
        ++result_.ops_applied;
        run_select(i, op);
        return;
      case OpKind::ReleaseOlder:
        run_release_older(op);
        return;
      case OpKind::AuditMembership:
        ++result_.ops_applied;
        audit_membership(i, op);
        return;
      case OpKind::AuditLedger:
        ++result_.ops_applied;
        audit_ledger(i, op);
        return;
    }
  }

  // --- observations ----------------------------------------------------------

  core::QueryOutcome exec_query(std::size_t origin, const query::Query& q) {
    core::QueryOutcome out;
    bool done = false;
    cluster_->node(origin).query().execute(q, [&](const core::QueryOutcome& o) {
      out = o;
      done = true;
    });
    cluster_->run();
    RBAY_REQUIRE(done, "query did not complete after drain");
    ++result_.queries;
    ++export_queries_;
    return out;
  }

  bool check_sites(std::size_t i, const Op& op, const core::QueryOutcome& outcome,
                   const std::vector<net::SiteId>& predicted_answered, int predicted_timeouts) {
    // sites_answered is reset every attempt but sites_timed_out accumulates
    // across retries; reachability is frozen at quiescence, so each of the
    // sim's attempts times out the same unreachable sites.
    const int expected_timeouts = predicted_timeouts * std::max(1, outcome.attempts);
    if (outcome.sites_answered == predicted_answered &&
        outcome.sites_timed_out == expected_timeouts) {
      return true;
    }
    diverge(i, op, "sites",
            "answered sim=[" + join_sites(outcome.sites_answered) + "] model=[" +
                join_sites(predicted_answered) + "], timed_out sim=" +
                std::to_string(outcome.sites_timed_out) + " model=" +
                std::to_string(predicted_timeouts) + "x" +
                std::to_string(std::max(1, outcome.attempts)) + " attempts");
    return false;
  }

  /// Diffs one quiescent COUNT outcome against the model prediction.
  /// Three answer classes, checked in this order:
  ///  - cached (query-plane answer cache): the entry was stored during
  ///    this same quiescent window, so the count must still equal the
  ///    model's and the declared staleness must fit the cache TTL;
  ///  - degraded (stale, non-cached — a promoted replica's snapshot): may
  ///    differ from the model but must declare a bounded staleness;
  ///  - fresh: exact count match.
  /// Shedding never happens here — the oracle runs with admission off —
  /// so a shed outcome is its own divergence kind.
  void diff_count(std::size_t i, const Op& op, const core::QueryOutcome& outcome,
                  const ReferenceModel::CountPrediction& predicted) {
    if (!outcome.error.empty()) {
      diverge(i, op, "query-error", outcome.error);
      return;
    }
    if (outcome.shed) {
      diverge(i, op, "shed", "query shed by admission control; the oracle runs with window 0");
      return;
    }
    if (!outcome.satisfied) {
      diverge(i, op, "satisfied", "COUNT query was denied; the model always answers");
      return;
    }
    if (!check_sites(i, op, outcome, predicted.sites_answered, predicted.sites_timed_out)) return;
    if (outcome.cached) {
      if (outcome.staleness > spec_.cache_ttl) {
        diverge(i, op, "staleness",
                "cached answer aged " + outcome.staleness.to_string() + " exceeds cache TTL " +
                    spec_.cache_ttl.to_string());
        return;
      }
      if (outcome.count != predicted.count) {
        diverge(i, op, "count",
                "cached sim=" + fmt_count(outcome.count) + " model=" + fmt_count(predicted.count));
      }
      return;
    }
    if (outcome.stale) {
      const auto bound = cluster_->config().node.scribe.max_staleness;
      if (outcome.staleness > bound) {
        diverge(i, op, "staleness",
                "stale answer aged " + outcome.staleness.to_string() + " exceeds bound " +
                    bound.to_string());
      }
      return;
    }
    if (outcome.count != predicted.count) {
      diverge(i, op, "count",
              "sim=" + fmt_count(outcome.count) + " model=" + fmt_count(predicted.count));
    }
  }

  /// Emits the expect lines diff_count's rules translate to, then diffs.
  /// Cached answers export a TTL staleness bound (that is the line a
  /// RBAY_MODEL_MUTATE_CACHE replay trips over); degraded answers keep
  /// the no-exact-count exemption.
  void check_count(std::size_t i, const Op& op, const core::QueryOutcome& outcome,
                   const ReferenceModel::CountPrediction& predicted) {
    emit("expect satisfied");
    if (outcome.cached) {
      emit("expect staleness-le " +
           std::to_string(static_cast<long long>(spec_.cache_ttl.as_millis())));
      emit("expect count " + fmt_count(predicted.count));
    } else if (!outcome.stale) {
      emit("expect count " + fmt_count(predicted.count));
    }
    diff_count(i, op, outcome, predicted);
  }

  void run_count(std::size_t i, const Op& op) {
    settle();
    const auto predicted = model_.predict_count(op.node, op.query);
    const auto outcome = exec_query(op.node, op.query);
    emit("query " + site_target(spec_, op.node) + " " + op.query.to_string());
    check_count(i, op, outcome, predicted);
  }

  /// CountStorm: `op.storm` concurrent copies of one COUNT from one
  /// origin.  At quiescence every copy must agree with the model whether
  /// its probes were coalesced by the batcher or answered by the cache —
  /// both are explicitly tolerated, shedding is not.  Two stragglers
  /// follow when the cache is on: one inside the TTL window (a live
  /// cache hit in the common case) and one past it (the entry must have
  /// expired — the op where a mutated cache serving an expired entry
  /// gets caught).
  void run_count_storm(std::size_t i, const Op& op) {
    settle();
    const auto predicted = model_.predict_count(op.node, op.query);
    const int copies = op.storm;
    RBAY_REQUIRE(copies > 0, "storm needs at least one copy");
    std::vector<core::QueryOutcome> outcomes;
    outcomes.reserve(static_cast<std::size_t>(copies));
    auto& iface = cluster_->node(op.node).query();
    for (int c = 0; c < copies; ++c) {
      iface.execute(op.query,
                    [&outcomes](const core::QueryOutcome& o) { outcomes.push_back(o); });
    }
    cluster_->run();
    RBAY_REQUIRE(outcomes.size() == static_cast<std::size_t>(copies),
                 "storm did not complete after drain");
    result_.queries += copies;
    emit("query-storm " + std::to_string(copies) + " " + site_target(spec_, op.node) + " " +
         op.query.to_string());
    emit("expect storm-satisfied " + std::to_string(copies));
    bool degraded = false;
    for (const auto& o : outcomes) degraded = degraded || (o.stale && !o.cached);
    if (!degraded) {
      emit("expect storm-count " + fmt_count(predicted.count));
      if (spec_.cache_ttl > util::SimTime::zero()) {
        emit("expect storm-staleness-le " +
             std::to_string(static_cast<long long>(spec_.cache_ttl.as_millis())));
      }
    }
    for (const auto& o : outcomes) {
      diff_count(i, op, o, predicted);
      if (result_.divergence.found) return;
    }

    if (spec_.cache_ttl == util::SimTime::zero()) return;
    // Straggler inside the TTL window: in the common (no-timeout) case the
    // storm's probe replies are still cached, so this exercises a real hit.
    const auto warm_gap = util::SimTime::millis(spec_.cache_ttl.as_millis() / 2);
    cluster_->run_for(warm_gap);
    cluster_->run();
    emit("run " + fmt_ms(warm_gap));
    const auto warm = exec_query(op.node, op.query);
    emit("query " + site_target(spec_, op.node) + " " + op.query.to_string());
    check_count(i, op, warm, predicted);
    if (result_.divergence.found) return;
    // Straggler past the TTL: the cache must refuse the expired entry and
    // answer fresh.  RBAY_MODEL_MUTATE_CACHE serves it anyway, with its
    // honest over-TTL age — diff_count flags that as a staleness
    // divergence and the exported staleness bound fails on replay.
    const auto cold_gap = spec_.cache_ttl + util::SimTime::millis(50);
    cluster_->run_for(cold_gap);
    cluster_->run();
    emit("run " + fmt_ms(cold_gap));
    const auto cold = exec_query(op.node, op.query);
    emit("query " + site_target(spec_, op.node) + " " + op.query.to_string());
    check_count(i, op, cold, predicted);
  }

  void run_select(std::size_t i, const Op& op) {
    settle();
    const auto predicted = model_.predict_select(op.node, op.query, cluster_->engine().now());
    const auto outcome = exec_query(op.node, op.query);
    const int query_no = export_queries_;
    emit("query " + site_target(spec_, op.node) + " " + op.query.to_string());
    emit(predicted.satisfied ? "expect satisfied" : "expect denied");
    if (predicted.satisfied) emit("expect nodes " + std::to_string(op.query.k));
    if (!outcome.error.empty()) {
      diverge(i, op, "query-error", outcome.error);
      return;
    }
    if (outcome.satisfied != predicted.satisfied) {
      diverge(i, op, "satisfied",
              std::string("sim ") + (outcome.satisfied ? "satisfied" : "denied") + ", model " +
                  (predicted.satisfied ? "satisfied" : "denied") + " (gatherable=" +
                  std::to_string(predicted.gatherable) + ", k=" + std::to_string(op.query.k) +
                  ")");
      return;
    }
    if (!check_sites(i, op, outcome, predicted.sites_answered, predicted.sites_timed_out)) return;
    if (!outcome.satisfied) return;  // both deny: nothing reserved, no decision

    if (outcome.nodes.size() != static_cast<std::size_t>(op.query.k)) {
      diverge(i, op, "nodes",
              "sim reserved " + std::to_string(outcome.nodes.size()) + " nodes, want k=" +
                  std::to_string(op.query.k));
      return;
    }
    // Validate-then-adopt: which k of the eligible nodes the sim reserved
    // is nondeterministic from the model's viewpoint — any eligible subset
    // is correct, and the model's ledger adopts the sim's actual choice.
    std::vector<std::size_t> picked;
    for (const auto& c : outcome.nodes) {
      const auto idx = cluster_->index_of(c.node.id);
      if (predicted.eligible.count(idx) == 0) {
        diverge(i, op, "eligibility",
                "sim reserved n" + std::to_string(idx) +
                    " which the model rules ineligible (eligible: " +
                    join_nodes({predicted.eligible.begin(), predicted.eligible.end()}) + ")");
        return;
      }
      picked.push_back(idx);
    }
    auto& query_iface = cluster_->node(op.node).query();
    if (op.decision == Decision::Release) {
      query_iface.release(outcome);
      cluster_->run();
      emit("release");
      return;
    }
    query_iface.commit(outcome, op.lease);
    cluster_->run();
    model_.commit(op.node, outcome.query_id, picked, cluster_->engine().now(), op.lease);
    live_commits_.push_back({op.node, outcome, picked, query_no, false});
    ++result_.commits;
    emit(op.lease == util::SimTime::zero() ? "commit" : "commit " + fmt_ms(op.lease));
  }

  void run_release_older(const Op& op) {
    std::vector<std::size_t> eligible;
    for (std::size_t c = 0; c < live_commits_.size(); ++c) {
      if (!live_commits_[c].released && !model_.crashed(live_commits_[c].origin)) {
        eligible.push_back(c);
      }
    }
    if (eligible.empty()) {
      ++result_.ops_skipped;
      return;
    }
    ++result_.ops_applied;
    auto& entry = live_commits_[eligible[op.slot % eligible.size()]];
    cluster_->node(entry.origin).query().release(entry.outcome);
    cluster_->run();
    model_.release(entry.origin, entry.outcome.query_id, entry.nodes);
    entry.released = true;
    emit("use-query " + std::to_string(entry.export_query));
    emit("release");
  }

  // --- god-view audits -------------------------------------------------------

  void audit_membership(std::size_t i, const Op& op) {
    settle();
    for (const auto& ts : model_.specs()) {
      for (net::SiteId s = 0; s < spec_.sites; ++s) {
        // The audit itself is god-view; the export compiles it down to the
        // closest observable probe — a site-local COUNT per (tree, site).
        ++export_queries_;
        emit("query Site" + std::to_string(s) + ":0 " + probe_query(ts, s).to_string());
        emit("expect count " + fmt_count(model_.tree_size(ts.canonical, s)));

        const auto want = model_.members(ts.canonical, s);
        std::vector<std::size_t> got;
        for (const auto idx : cluster_->nodes_in_site(s)) {
          if (!cluster_->overlay().is_failed(idx) && cluster_->node(idx).subscribed_to(ts)) {
            got.push_back(idx);
          }
        }
        std::sort(got.begin(), got.end());
        if (got != want) {
          diverge(i, op, "membership",
                  ts.canonical + "@Site" + std::to_string(s) + ": sim=[" + join_nodes(got) +
                      "] model=[" + join_nodes(want) + "]");
          return;
        }
      }
    }
  }

  void audit_ledger(std::size_t i, const Op& op) {
    settle();
    const auto now = cluster_->engine().now();
    const auto want = model_.committed_now(now);
    std::map<std::size_t, query::QueryId> got;
    for (std::size_t n = 0; n < cluster_->size(); ++n) {
      auto& lock = cluster_->node(n).lock();
      if (lock.committed(now)) got.emplace(n, *lock.holder());
    }
    // The ledger itself is not expressible in the scenario DSL; the export
    // keeps the closest replayable check (no orphaned reservations).
    emit("check-invariants reservations");
    if (got == want) return;
    std::ostringstream os;
    os << "sim={";
    for (const auto& [n, holder] : got) os << " n" << n << ":" << to_string(holder);
    os << " } model={";
    for (const auto& [n, holder] : want) os << " n" << n << ":" << to_string(holder);
    os << " }";
    diverge(i, op, "ledger", os.str());
  }

  // --- bookkeeping -----------------------------------------------------------

  /// After every op: the model's crashed set must equal the overlay's
  /// failed set, or every later comparison would be noise.
  void cross_check_faults(std::size_t i, const Op& op) {
    if (result_.divergence.found) return;
    for (std::size_t n = 0; n < cluster_->size(); ++n) {
      if (model_.crashed(n) != cluster_->overlay().is_failed(n)) {
        diverge(i, op, "fault-mirror",
                "n" + std::to_string(n) + " model=" +
                    (model_.crashed(n) ? "crashed" : "alive") + " overlay=" +
                    (cluster_->overlay().is_failed(n) ? "failed" : "alive"));
        return;
      }
    }
  }

  void emit(const std::string& line) {
    if (options_.export_scenario) {
      scenario_ += line;
      scenario_ += '\n';
    }
  }

  void diverge(std::size_t i, const Op& op, std::string kind, std::string detail) {
    if (result_.divergence.found) return;
    auto& d = result_.divergence;
    d.found = true;
    d.op_index = i;
    d.op = op.describe();
    d.kind = std::move(kind);
    d.detail = std::move(detail);
    if (cluster_->metrics() != nullptr) {
      result_.registry_json = cluster_->metrics()->to_json();
      fault::InvariantReport report;
      report.add("model-divergence", d.kind + " at op " + std::to_string(d.op_index) + " (" +
                                         d.op + "): " + d.detail);
      result_.failure_dump = fault::failure_dump(*cluster_, report);
      result_.trace_json =
          obs::write_chrome_trace(cluster_->metrics()->causal_log(), cluster_->chrome_labels());
    }
  }

  const Workload& workload_;
  const WorkloadSpec& spec_;
  RunOptions options_;
  ReferenceModel model_;
  std::unique_ptr<core::RBayCluster> cluster_;
  std::unique_ptr<fault::FaultInjector> injector_;  // after cluster_: dtor order
  std::vector<LiveCommit> live_commits_;
  int export_queries_ = 0;  // `query` directives emitted so far (1-based numbers)
  std::string scenario_;
  RunResult result_;
};

}  // namespace

std::string Divergence::to_string() const {
  if (!found) return "no divergence";
  return kind + " at op " + std::to_string(op_index) + " (" + op + "): " + detail;
}

RunResult run_differential(const Workload& workload, const RunOptions& options) {
  Execution execution(workload, options);
  return execution.run(workload.ops);
}

std::vector<Op> shrink_ops(std::vector<Op> ops, const OpsPredicate& still_fails, int max_probes,
                           int* probes_used) {
  int probes = 0;
  std::size_t chunk = std::max<std::size_t>(1, ops.size() / 2);
  while (!ops.empty() && probes < max_probes) {
    bool removed = false;
    std::size_t start = 0;
    while (start < ops.size() && probes < max_probes) {
      const auto end = std::min(ops.size(), start + chunk);
      std::vector<Op> candidate;
      candidate.reserve(ops.size() - (end - start));
      candidate.insert(candidate.end(), ops.begin(),
                       ops.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(), ops.begin() + static_cast<std::ptrdiff_t>(end),
                       ops.end());
      ++probes;
      if (still_fails(candidate)) {
        ops = std::move(candidate);
        removed = true;
        // keep `start`: the next chunk slid into this position
      } else {
        start = end;
      }
    }
    if (chunk == 1 && !removed) break;
    chunk = std::max<std::size_t>(1, chunk / 2);
  }
  if (probes_used != nullptr) *probes_used = probes;
  return ops;
}

ShrinkOutcome shrink_divergence(const Workload& workload, int max_probes) {
  ShrinkOutcome out;
  auto fails = [&workload](const std::vector<Op>& ops) {
    Workload candidate = workload;
    candidate.ops = ops;
    return run_differential(candidate).divergence.found;
  };
  out.ops = shrink_ops(workload.ops, fails, max_probes, &out.probes);
  Workload minimal = workload;
  minimal.ops = out.ops;
  out.divergence = run_differential(minimal).divergence;
  return out;
}

util::Result<ArtifactPaths> write_artifacts(const std::string& dir, const std::string& base,
                                            const Workload& workload,
                                            const std::vector<Op>& ops,
                                            const Divergence& divergence) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return util::make_error("cannot create artifact dir '" + dir + "': " + ec.message());

  Workload minimal = workload;
  minimal.ops = ops;
  RunOptions options;
  options.metrics = true;
  options.export_scenario = true;
  const auto rerun = run_differential(minimal, options);

  ArtifactPaths paths;
  paths.scenario = dir + "/" + base + ".rbay";
  paths.report = dir + "/" + base + ".txt";

  {
    std::ofstream out(paths.scenario);
    out << "# " << divergence.to_string() << "\n" << rerun.scenario;
    if (!out) return util::make_error("cannot write " + paths.scenario);
  }
  {
    std::ofstream out(paths.report);
    out << "divergence: " << divergence.to_string() << "\n";
    out << "rerun: " << rerun.summary << "\n";
    out << "ops (" << ops.size() << "):\n";
    for (std::size_t i = 0; i < ops.size(); ++i) {
      out << "  [" << i << "] " << ops[i].describe() << "\n";
    }
    if (!rerun.failure_dump.empty()) out << "\n" << rerun.failure_dump << "\n";
    if (!rerun.registry_json.empty()) out << "\nregistry: " << rerun.registry_json << "\n";
    if (!out) return util::make_error("cannot write " + paths.report);
  }
  if (!rerun.trace_json.empty()) {
    paths.trace = dir + "/" + base + "_trace.json";
    std::ofstream out(paths.trace);
    out << rerun.trace_json;
    if (!out) return util::make_error("cannot write " + paths.trace);
  }
  return paths;
}

std::string artifact_dir_or(const std::string& fallback) {
  const char* env = std::getenv("RBAY_MODEL_ARTIFACTS");
  if (env != nullptr && *env != '\0') return std::string(env);
  return fallback;
}

}  // namespace rbay::model
