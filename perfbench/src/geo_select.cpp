// geo_select: the Fig. 10 query mix on the eight-site federation, closed
// loop with one caller.  Query i comes from site i mod 8 and asks for
// 1 + (i / 8) mod 8 sites; each is a SELECT 1 with the password payload,
// followed by a release.

#include <algorithm>

#include "federation.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rbay;

namespace {

constexpr std::size_t kPerSite = 150;
constexpr std::size_t kSites = 8;
constexpr std::size_t kBatch = kSites * kSites;  // every (origin, site count) pair once
constexpr std::size_t kCoreBatches = 16;         // 1,024 queries

class GeoSelect final : public Workload {
 public:
  GeoSelect(const Options& options, Spans& spans, bool traced)
      : spans_(spans),
        fed_(FederationConfig{kPerSite, options.seed, traced, {}}, spans) {}

  void setup() override {
    fed_.build();
    auto& cluster = fed_.cluster;
    const auto& names = cluster.directory().site_names;
    const auto& types = instance_types();
    for (net::SiteId s = 0; s < kSites; ++s) {
      origin_[s] = cluster.nodes_in_site(s)[1];
      // FROM lists: the origin first, then the other sites in directory
      // order (as Fig. 10 widens the query).
      std::string from = names[s];
      std::vector<net::SiteId> sites{s};
      from_[s][0] = from;
      sites_[s][0] = sites;
      for (net::SiteId t = 0, n = 1; t < kSites && n < kSites; ++t) {
        if (t == s) continue;
        from += ", " + names[t];
        sites.push_back(t);
        from_[s][n] = from;
        sites_[s][n] = sites;
        ++n;
      }
      // Instance types some node of the origin site can satisfy, so every
      // query has an answer.
      const auto members = cluster.nodes_in_site(s);
      for (const auto& type : types) {
        const auto preds = predicates_for(type);
        viable_[s].push_back(std::any_of(members.begin(), members.end(), [&](std::size_t i) {
          return satisfies(cluster.node(i), preds);
        }));
      }
    }
  }

  [[nodiscard]] std::size_t nodes() const override { return fed_.cluster.size(); }
  [[nodiscard]] std::size_t core_batches() const override { return kCoreBatches; }
  sim::Engine& engine() override { return fed_.cluster.engine(); }
  net::Network& network() override { return fed_.cluster.network(); }

  std::size_t batch(std::size_t index) override {
    const bool in_core = index < kCoreBatches;
    if (index == 0) gets_start_ = total_gets_served(fed_.cluster);
    for (std::size_t q = 0; q < kBatch; ++q) query(q % kSites, q / kSites, in_core);
    if (index + 1 == kCoreBatches) gets_end_ = total_gets_served(fed_.cluster);
    return kBatch;
  }

  void finish(Result& result) override {
    auto& cluster = fed_.cluster;
    // Quiesce: anycast holds expire, releases land.
    cluster.run_for(util::SimTime::seconds(1));
    cluster.run();
    const auto now = cluster.engine().now();
    std::size_t held = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.node(i).lock().reserved(now) || cluster.node(i).lock().committed(now)) ++held;
    }
    if (held > 0) result.error(std::to_string(held) + " reservations held at quiescence");
    for (auto& e : errors_) result.error(std::move(e));
    result.ops(attempted_, failed_);
    result.metric("query_sim_ms_p50", pct(sim_ms_, 50), "ms");
    result.metric("query_sim_ms_p99", pct(sim_ms_, 99), "ms");
    result.metric("op_host_ms_p50", pct(host_ms_, 50), "ms");
    result.metric("op_host_ms_p99", pct(host_ms_, 99), "ms");
  }

  void layers(Result& result) override {
    result.metric("query.parse_us_p50", pct(parse_us_, 50), "us");
    result.metric("core.submit_us_p50", pct(submit_us_, 50), "us");
    result.metric("aal.onget_per_query",
                  static_cast<double>(gets_end_ - gets_start_) / static_cast<double>(core_ops),
                  "calls");
    fed_.layers(result);
  }

 private:
  static std::vector<query::Predicate> predicates_for(const std::string& type) {
    return {{"instance", query::CompareOp::Eq, store::AttributeValue{type}},
            {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.95}},
            {"Matlab", query::CompareOp::NotEq, store::AttributeValue{std::string("none")}}};
  }

  /// God view: the node's store satisfies every predicate.
  static bool satisfies(const core::RBayNode& node, const std::vector<query::Predicate>& preds) {
    return std::all_of(preds.begin(), preds.end(), [&](const query::Predicate& p) {
      const auto* attr = node.attributes().find(p.attribute);
      return attr != nullptr && p.matches(attr->value());
    });
  }

  void query(net::SiteId origin, std::size_t widen, bool in_core) {
    auto& cluster = fed_.cluster;
    const auto& types = instance_types();
    std::size_t type = 0;
    do {
      const auto& name = gaussian_instance_type(fed_.rng);
      type = static_cast<std::size_t>(std::find(types.begin(), types.end(), name) -
                                      types.begin());
    } while (!viable_[origin][type]);
    const std::string sql = "SELECT 1 FROM " + from_[origin][widen] + " WHERE instance = '" +
                            types[type] +
                            "' AND CPU_utilization < 0.95 AND Matlab != 'none' WITH \"rbay\"";

    auto& qi = cluster.node(origin_[origin]).query();
    core::QueryOutcome outcome;
    bool done = false;
    const double t0 = host_now();
    const double submit = spans_.time("core", "QueryInterface::execute_sql", [&] {
      qi.execute_sql(sql, [&](const core::QueryOutcome& o) {
        outcome = o;
        done = true;
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
    if (outcome.satisfied) {
      spans_.time("core", "QueryInterface::release", [&] { qi.release(outcome); });
      spans_.time("sim", "Engine::run", [&] { cluster.run(); });
    }
    host_ms_.add((host_now() - t0) * 1e3);
    submit_us_.add(submit * 1e6);

    ++attempted_;
    const std::string what = check(done, outcome, predicates_for(types[type]),
                                   sites_[origin][widen]);
    if (!what.empty()) {
      ++failed_;
      if (errors_.size() < 5) errors_.push_back("geo_select: " + sql + ": " + what);
    }
    if (in_core) sim_ms_.add(outcome.latency().as_millis());
  }

  /// Empty when the outcome is right: one candidate, in a requested site,
  /// whose store (god view) satisfies every predicate.
  std::string check(bool done, const core::QueryOutcome& o,
                    const std::vector<query::Predicate>& preds,
                    const std::vector<net::SiteId>& sites) {
    if (!done) return "no outcome at quiescence";
    if (!o.satisfied || !o.error.empty()) return "not satisfied " + o.error;
    if (o.nodes.size() != 1) return "returned " + std::to_string(o.nodes.size()) + " nodes";
    auto& cluster = fed_.cluster;
    for (const auto& c : o.nodes) {
      const auto& node = cluster.node(cluster.index_of(c.node.id));
      if (std::find(sites.begin(), sites.end(), node.site()) == sites.end()) {
        return "candidate outside the requested sites";
      }
      if (!satisfies(node, preds)) return "candidate fails a predicate in its own store";
    }
    return {};
  }

  Spans& spans_;
  Federation fed_;
  std::size_t origin_[kSites] = {};
  std::string from_[kSites][kSites];
  std::vector<net::SiteId> sites_[kSites][kSites];
  std::vector<bool> viable_[kSites];  // per origin site, per instance type

  util::Samples sim_ms_;     // core queries
  util::Samples host_ms_;    // every query
  util::Samples submit_us_;  // synchronous part of execute_sql
  util::Samples parse_us_;
  std::uint64_t gets_start_ = 0;
  std::uint64_t gets_end_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace

std::unique_ptr<Workload> make_geo_select(const Options& options, Spans& spans, bool traced) {
  return std::make_unique<GeoSelect>(options, spans, traced);
}

}  // namespace perfbench
