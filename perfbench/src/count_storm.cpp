// count_storm: the bench_throughput shape.  A 10k-node eight-site
// federation with the query plane on (admission window 1, answer cache
// with TTL = aggregation period, probe batching) takes an open-loop Poisson
// stream of 12k qps, timed in sim time, of SELECT COUNT queries over the 23
// instance types with Zipf(1.0) popularity, all from one origin.
// Membership is static, so every answer — cached or not — must equal the
// god-view count.

#include <cmath>
#include <limits>

#include "federation.hpp"
#include "qplane/workload_driver.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rbay;

namespace {

constexpr std::size_t kPerSite = 1250;
constexpr double kRateQps = 12000.0;
/// Backlog behind the one-slot window.  bench_throughput's backlog of 2
/// sheds ~4% of this stream; a shed query counts as a failure here, so the
/// backlog is deep enough that none is shed and queueing shows as latency.
constexpr int kAdmissionQueue = 4096;
constexpr util::SimTime kBatchSim = util::SimTime::millis(250);
constexpr std::size_t kCoreBatches = 24;  // 6 sim-s, ~72k queries
constexpr std::size_t kNotInBatch = std::numeric_limits<std::size_t>::max();

class CountStorm final : public Workload {
 public:
  CountStorm(const Options& options, Spans& spans, bool traced)
      : spans_(spans),
        fed_(FederationConfig{kPerSite, options.seed, traced,
                              [](core::ClusterConfig& c) {
                                c.node.query.qplane.admission_window = 1;
                                c.node.query.qplane.admission_queue = kAdmissionQueue;
                                c.node.query.qplane.cache_ttl =
                                    c.node.scribe.aggregation_interval;
                                c.node.query.qplane.batch_probes = true;
                              }},
             spans) {}

  void setup() override {
    fed_.build();
    auto& cluster = fed_.cluster;
    origin_ = cluster.nodes_in_site(0)[1];
    const auto& site = cluster.directory().site_names[0];
    for (const auto& type : instance_types()) {
      sql_.push_back("SELECT COUNT FROM " + site + " WHERE instance = '" + type + "'");
      expected_.push_back(static_cast<double>(count_matching(
          cluster, 0, {"instance", query::CompareOp::Eq, store::AttributeValue{type}})));
    }
    qplane::ArrivalShape shape;
    shape.rate_qps = kRateQps;
    shape.zipf_skew = 1.0;
    driver_ = std::make_unique<qplane::OpenLoopDriver>(
        cluster.engine(), shape, instance_types().size(), [this](std::size_t rank) {
          issue(rank);
        });
  }

  [[nodiscard]] std::size_t nodes() const override { return fed_.cluster.size(); }
  [[nodiscard]] std::size_t core_batches() const override { return kCoreBatches; }
  sim::Engine& engine() override { return fed_.cluster.engine(); }
  net::Network& network() override { return fed_.cluster.network(); }

  std::size_t batch(std::size_t index) override {
    batch_ = index;
    completed_ = 0;
    driver_->run(kBatchSim);
    spans_.time("sim", "Engine::run_for", [&] { fed_.cluster.run_for(kBatchSim); });
    batch_ = kNotInBatch;
    return completed_;
  }

  void finish(Result& result) override {
    // The last batch's arrivals have all been issued; drain them.
    fed_.cluster.run();
    if (answered_ != issued_) {
      result.error("count_storm: " + std::to_string(issued_ - answered_) +
                   " queries unanswered at quiescence");
    }
    for (auto& e : errors_) result.error(std::move(e));
    result.ops(issued_, failed_ + (issued_ - answered_));
    result.metric("query_sim_ms_p50", pct(sim_ms_, 50), "ms");
    result.metric("query_sim_ms_p99", pct(sim_ms_, 99), "ms");
    result.metric("count_err", count_err_n_ > 0 ? count_err_sum_ / count_err_n_ : 0.0, "nodes");
  }

  void layers(Result& result) override {
    result.metric("query.parse_us_p50", pct(parse_us_, 50), "us");
    result.metric("core.submit_us_p50", pct(submit_us_, 50), "us");
    fed_.layers(result);
  }

 private:
  void issue(std::size_t rank) {
    ++issued_;
    const auto& sql = sql_[rank];
    if (spans_.recording()) {
      const double dt = spans_.time("query", "parse_query",
                                    [&] { (void)query::parse_query(sql); });
      parse_us_.add(dt * 1e6);
    }
    const double dt = spans_.time("core", "QueryInterface::execute_sql", [&] {
      fed_.cluster.node(origin_).query().execute_sql(
          sql, [this, rank](const core::QueryOutcome& o) { answered(rank, o); });
    });
    submit_us_.add(dt * 1e6);
  }

  void answered(std::size_t rank, const core::QueryOutcome& o) {
    ++answered_;
    ++completed_;
    const bool ok = !o.shed && o.satisfied && o.error.empty() && o.count == expected_[rank];
    if (!ok) {
      ++failed_;
      if (errors_.size() < 5) {
        errors_.push_back("count_storm: " + sql_[rank] + (o.shed ? ": shed" : "") +
                          ": count " + std::to_string(o.count) + ", god view " +
                          std::to_string(expected_[rank]));
      }
    }
    // Sim-side figures only from queries answered inside a core batch: a
    // pure function of the seed, whatever runs after the core.
    if (batch_ < kCoreBatches) {
      sim_ms_.add(o.latency().as_millis());
      count_err_sum_ += std::fabs(o.count - expected_[rank]);
      ++count_err_n_;
    }
  }

  Spans& spans_;
  Federation fed_;
  std::unique_ptr<qplane::OpenLoopDriver> driver_;
  std::size_t origin_ = 0;
  std::vector<std::string> sql_;
  std::vector<double> expected_;

  std::size_t batch_ = kNotInBatch;
  std::size_t completed_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t answered_ = 0;
  std::uint64_t failed_ = 0;
  double count_err_sum_ = 0.0;
  double count_err_n_ = 0.0;
  util::Samples sim_ms_;
  util::Samples submit_us_;
  util::Samples parse_us_;
  std::vector<std::string> errors_;
};

}  // namespace

std::unique_ptr<Workload> make_count_storm(const Options& options, Spans& spans, bool traced) {
  return std::make_unique<CountStorm>(options, spans, traced);
}

}  // namespace perfbench
