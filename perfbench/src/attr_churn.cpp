// attr_churn: the write path beside a light read path.  An eight-site
// federation with scribe heartbeat repair on.  Every 500 sim-ms each live
// node posts its next CPU_utilization, a random walk that crosses the
// < 0.1 tree predicate; once per simulated second the benchmark may crash
// and at once recover a node, and reads
// SELECT COUNT ... WHERE CPU_utilization < 0.1 once per site against the
// god-view count.  At the end it recovers every node, quiesces, and runs
// the chaos harness's invariant checkers.

#include <algorithm>
#include <cmath>

#include "fault/invariants.hpp"
#include "federation.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rbay;

namespace {

constexpr std::size_t kPerSite = 250;
constexpr std::size_t kSites = 8;
/// Monitor feed: every live node posts CPU_utilization every kFeed, a
/// random walk with this step.  One write per node per round keeps a
/// node's leave and re-join (when it crosses 0.1 and back) a full round
/// apart.
constexpr util::SimTime kFeed = util::SimTime::millis(500);
constexpr double kWalkStep = 0.05;
/// Chance per simulated second of crashing (and at once recovering) one
/// non-gateway node.
constexpr double kCrashChance = 0.5;
constexpr std::size_t kCoreBatches = 8;

const query::Predicate kIdle{"CPU_utilization", query::CompareOp::Less,
                             store::AttributeValue{0.1}};

class AttrChurn final : public Workload {
 public:
  AttrChurn(const Options& options, Spans& spans, bool traced)
      : spans_(spans),
        fed_(FederationConfig{kPerSite, options.seed, traced,
                              [](core::ClusterConfig& c) {
                                c.node.scribe.heartbeat_interval = util::SimTime::millis(250);
                                c.node.scribe.anycast_timeout = util::SimTime::millis(1500);
                              }},
             spans) {}

  void setup() override {
    fed_.build();
    auto& cluster = fed_.cluster;
    gateway_.assign(cluster.size(), false);
    for (net::SiteId s = 0; s < kSites; ++s) {
      const auto gw = cluster.nodes_in_site(s).front();
      gateway_[gw] = true;
      gateways_.push_back(gw);
      read_sql_.push_back("SELECT COUNT FROM " + cluster.directory().site_names[s] +
                          " WHERE CPU_utilization < 0.1");
    }
  }

  [[nodiscard]] std::size_t nodes() const override { return fed_.cluster.size(); }
  [[nodiscard]] std::size_t core_batches() const override { return kCoreBatches; }
  sim::Engine& engine() override { return fed_.cluster.engine(); }
  net::Network& network() override { return fed_.cluster.network(); }

  std::size_t batch(std::size_t index) override {
    auto& cluster = fed_.cluster;
    const bool in_core = index < kCoreBatches;
    const auto start = cluster.engine().now();
    std::size_t ops = feed();

    // A node crashes and is recovered before the engine runs again: a node
    // that stays down across heartbeats gets dropped by its parent, and
    // Scribe::rejoin then forget()s that live parent in Pastry, which can
    // leave two roots for one tree (README.md).
    if (fed_.rng.chance(kCrashChance)) {
      std::size_t victim = random_live_node();
      while (gateway_[victim]) victim = random_live_node();
      auto& overlay = cluster.overlay();
      fail_ms_.add(1e3 * spans_.time("pastry", "Overlay::fail_node",
                                     [&] { overlay.fail_node(victim); }));
      recover_ms_.add(1e3 * spans_.time("pastry", "Overlay::recover_node",
                                        [&] { overlay.recover_node(victim); }));
      op(true, "");
      op(true, "");
      ops += 2;
    }

    spans_.time("sim", "Engine::run_until", [&] { cluster.engine().run_until(start + kFeed); });
    for (net::SiteId s = 0; s < kSites; ++s) {
      read(s, in_core);
      ++ops;
    }
    ops += feed();
    spans_.time("sim", "Engine::run_until",
                [&] { cluster.engine().run_until(start + kFeed + kFeed); });
    return ops;
  }

  void finish(Result& result) override {
    auto& cluster = fed_.cluster;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.overlay().is_failed(i)) cluster.overlay().recover_node(i);
    }
    // Several heartbeat-miss budgets for repair, then aggregate propagation.
    cluster.run_for(util::SimTime::seconds(12));
    cluster.run();
    fault::InvariantReport report;
    spans_.time("fault", "check_all", [&] { report = fault::check_all(cluster); });
    violations_ = report.violations.size();
    if (!report.ok()) {
      result.error("attr_churn: invariants after quiescence: " + report.to_string());
    }
    // Quiesced and crash-free: every site's COUNT is now exact.
    for (net::SiteId s = 0; s < kSites; ++s) {
      double count = -1.0;
      cluster.node(gateways_[s]).query().execute_sql(
          read_sql_[s], [&](const core::QueryOutcome& o) { count = o.count; });
      cluster.run();
      const auto truth = static_cast<double>(count_matching(cluster, s, kIdle));
      if (count != truth) {
        result.error("attr_churn: quiesced COUNT for site " + std::to_string(s) + " is " +
                     std::to_string(count) + ", god view " + std::to_string(truth));
      }
    }
    for (auto& e : errors_) result.error(std::move(e));
    result.ops(attempted_, failed_);
    result.metric("query_sim_ms_p50", pct(sim_ms_, 50), "ms");
    result.metric("query_sim_ms_p99", pct(sim_ms_, 99), "ms");
    result.metric("op_host_ms_p50", pct(read_host_ms_, 50), "ms");
    result.metric("op_host_ms_p99", pct(read_host_ms_, 99), "ms");
    result.metric("count_err", count_err_n_ > 0 ? count_err_sum_ / count_err_n_ : 0.0, "nodes");
  }

  void layers(Result& result) override {
    fed_.layers(result);
    result.metric("store.post_us_p50", pct(post_us_, 50), "us");  // the feed's posts
    result.metric("query.parse_us_p50", pct(parse_us_, 50), "us");
    result.metric("core.submit_us_p50", pct(submit_us_, 50), "us");
    result.metric("pastry.fail_node_ms", fail_ms_.empty() ? 0.0 : fail_ms_.mean(), "ms");
    result.metric("pastry.recover_node_ms", recover_ms_.empty() ? 0.0 : recover_ms_.mean(), "ms");
    result.metric("fault.invariant_violations", static_cast<double>(violations_), "count");
  }

 private:
  /// One monitor-feed round: every live node posts its next
  /// CPU_utilization.  Returns the writes made.
  std::size_t feed() {
    auto& cluster = fed_.cluster;
    std::size_t writes = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.overlay().is_failed(i)) continue;
      const auto* attr = cluster.node(i).attributes().find("CPU_utilization");
      const double cpu =
          std::clamp(attr->value().as_double() + fed_.rng.gaussian(0.0, kWalkStep), 0.0, 1.0);
      bool ok = false;
      const double dt = spans_.time("store", "RBayNode::post", [&] {
        ok = cluster.node(i).post("CPU_utilization", cpu).ok();
      });
      post_us_.add(dt * 1e6);
      op(ok, "attr_churn: RBayNode::post failed");
      ++writes;
    }
    return writes;
  }

  std::size_t random_live_node() {
    auto& overlay = fed_.cluster.overlay();
    for (;;) {
      const auto i = static_cast<std::size_t>(fed_.rng.uniform(fed_.cluster.size()));
      if (!overlay.is_failed(i)) return i;
    }
  }

  void op(bool ok, const char* what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (errors_.size() < 5) errors_.emplace_back(what);
  }

  /// One closed-loop COUNT read of site `s` from its gateway.
  void read(net::SiteId s, bool in_core) {
    auto& cluster = fed_.cluster;
    const auto& sql = read_sql_[s];
    core::QueryOutcome outcome;
    bool done = false;
    double truth = 0.0;
    const double t0 = host_now();
    const double submit = spans_.time("core", "QueryInterface::execute_sql", [&] {
      cluster.node(gateways_[s]).query().execute_sql(sql, [&](const core::QueryOutcome& o) {
        outcome = o;
        done = true;
        truth = static_cast<double>(count_matching(cluster, s, kIdle));  // at answer time
      });
    });
    // Timed after the submit, whose allocations the first call following
    // an engine run pays for, so this is the parser alone.
    if (spans_.recording()) {
      const double dt = spans_.time("query", "parse_query",
                                    [&] { (void)query::parse_query(sql); });
      parse_us_.add(dt * 1e6);
    }
    spans_.time("sim", "Engine::run", [&] { cluster.run(); });
    read_host_ms_.add((host_now() - t0) * 1e3);
    submit_us_.add(submit * 1e6);
    op(done && outcome.satisfied && outcome.sites_timed_out == 0,
       "attr_churn: COUNT read unanswered or timed out");
    if (in_core) {
      sim_ms_.add(outcome.latency().as_millis());
      count_err_sum_ += std::fabs(outcome.count - truth);
      ++count_err_n_;
    }
  }

  Spans& spans_;
  Federation fed_;
  std::vector<std::size_t> gateways_;
  std::vector<bool> gateway_;
  std::vector<std::string> read_sql_;

  util::Samples post_us_;
  util::Samples fail_ms_;
  util::Samples recover_ms_;
  util::Samples read_host_ms_;
  util::Samples submit_us_;
  util::Samples parse_us_;
  util::Samples sim_ms_;
  double count_err_sum_ = 0.0;
  double count_err_n_ = 0.0;
  std::size_t violations_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace

std::unique_ptr<Workload> make_attr_churn(const Options& options, Spans& spans, bool traced) {
  return std::make_unique<AttrChurn>(options, spans, traced);
}

}  // namespace perfbench
