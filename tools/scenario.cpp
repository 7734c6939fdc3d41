#include "tools/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>

#include "core/naming.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "fault/schedule.hpp"
#include "fault/watchdog.hpp"
#include "obs/timeseries.hpp"

namespace rbay::tools {

namespace {

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is{line};
  std::string word;
  while (is >> word) out.push_back(word);
  return out;
}

util::Error error_at(int line, const std::string& what) {
  return util::make_error("line " + std::to_string(line) + ": " + what);
}

}  // namespace

util::Result<std::vector<Directive>> parse_scenario(const std::string& text) {
  std::vector<Directive> out;
  std::istringstream is{text};
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments and whitespace.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto words = split_words(line);
    if (words.empty()) continue;

    Directive d;
    d.line = line_no;
    d.keyword = words[0];
    std::transform(d.keyword.begin(), d.keyword.end(), d.keyword.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    d.args.assign(words.begin() + 1, words.end());
    const auto kw_pos = line.find(words[0]);
    d.raw_tail = line.substr(kw_pos + words[0].size());
    const auto tail_start = d.raw_tail.find_first_not_of(" \t");
    d.raw_tail = tail_start == std::string::npos ? "" : d.raw_tail.substr(tail_start);

    // Heredoc: last arg "<<TOKEN" pulls lines until TOKEN.
    if (!d.args.empty() && d.args.back().rfind("<<", 0) == 0) {
      const std::string token = d.args.back().substr(2);
      if (token.empty()) return error_at(line_no, "heredoc needs a terminator token");
      d.args.pop_back();
      std::string body;
      bool closed = false;
      while (std::getline(is, line)) {
        ++line_no;
        if (line == token) {
          closed = true;
          break;
        }
        body += line;
        body += '\n';
      }
      if (!closed) return error_at(d.line, "unterminated heredoc (missing '" + token + "')");
      d.heredoc = std::move(body);
    }
    out.push_back(std::move(d));
  }
  return out;
}

namespace {

/// Execution state threaded through directive handlers.
class Runner {
 public:
  explicit Runner(ScenarioOptions options)
      : options_(options), config_(initial_config(options_)) {}

  util::Result<ScenarioReport> run(const std::vector<Directive>& directives) {
    for (const auto& d : directives) {
      auto result = apply(d);
      if (!result.ok()) return util::make_error(result.error());
    }
    // The watchdog's verdict comes before the snapshot: a never-healed
    // violation fails the scenario with a flight-recorder dump.
    if (watchdog_ != nullptr) {
      watchdog_->stop();
      auto verdict = watchdog_->finalize();
      if (!verdict.ok()) {
        return util::make_error("watchdog (seed " + std::to_string(config_.seed) +
                                "): " + verdict.error());
      }
      report_.output.push_back(
          "watchdog: polls=" + std::to_string(watchdog_->polls()) +
          " opened=" + std::to_string(watchdog_->opened_total()) +
          " healed=" + std::to_string(watchdog_->healed_total()));
    }
    if (timeseries_ != nullptr) {
      timeseries_->stop();
      timeseries_->sample();  // settled-state window, so expects see the end
      report_.timeseries_json = timeseries_->to_json();
    }
    if (cluster_ != nullptr && cluster_->metrics() != nullptr) {
      report_.metrics_json = cluster_->metrics()->to_json();
      if (options_.trace) {
        report_.trace_json = obs::write_chrome_trace(cluster_->metrics()->causal_log(),
                                                     cluster_->chrome_labels());
      }
    }
    return std::move(report_);
  }

 private:
  // --- helpers ------------------------------------------------------------

  static util::Result<store::AttributeValue> parse_literal(const std::string& word) {
    if (word == "true") return store::AttributeValue{true};
    if (word == "false") return store::AttributeValue{false};
    if (word.size() >= 2 && (word.front() == '\'' || word.front() == '"') &&
        word.back() == word.front()) {
      return store::AttributeValue{word.substr(1, word.size() - 2)};
    }
    char* end = nullptr;
    const double v = std::strtod(word.c_str(), &end);
    if (end != word.c_str() && *end == '\0') return store::AttributeValue{v};
    return store::AttributeValue{word};  // bare word = string
  }

  static util::Result<query::CompareOp> parse_op(const std::string& op) {
    if (op == "=") return query::CompareOp::Eq;
    if (op == "!=") return query::CompareOp::NotEq;
    if (op == "<") return query::CompareOp::Less;
    if (op == "<=") return query::CompareOp::LessEq;
    if (op == ">") return query::CompareOp::Greater;
    if (op == ">=") return query::CompareOp::GreaterEq;
    return util::make_error("unknown comparison operator '" + op + "'");
  }

  static util::Result<util::SimTime> parse_duration(const std::string& word) {
    std::size_t suffix = 0;
    const double v = std::stod(word, &suffix);
    const std::string unit = word.substr(suffix);
    if (unit == "ms") return util::SimTime::millis(v);
    if (unit == "s" || unit.empty()) return util::SimTime::seconds(v);
    if (unit == "us") return util::SimTime::micros(static_cast<std::int64_t>(v));
    return util::make_error("unknown duration unit '" + unit + "'");
  }

  util::Result<std::vector<std::size_t>> nodes_of(const Directive& d,
                                                  const std::string& site_word) {
    if (cluster_ == nullptr) return error_at(d.line, "no nodes yet (missing 'nodes'?)");
    std::vector<std::size_t> out;
    if (site_word == "*") {
      for (std::size_t i = 0; i < cluster_->size(); ++i) out.push_back(i);
      return out;
    }
    // "<site>:<index>" addresses one node by its site-relative position —
    // the form counterexample exports use so a replay touches exactly the
    // node the harness touched.
    const auto colon = site_word.find(':');
    if (colon != std::string::npos) {
      const auto site = config_.topology.site_by_name(site_word.substr(0, colon));
      const auto members = cluster_->nodes_in_site(site);
      const auto idx = static_cast<std::size_t>(std::stoul(site_word.substr(colon + 1)));
      if (idx >= members.size()) {
        return error_at(d.line, "node index " + std::to_string(idx) + " out of range for '" +
                                    site_word.substr(0, colon) + "'");
      }
      out.push_back(members[idx]);
      return out;
    }
    const auto site = config_.topology.site_by_name(site_word);  // throws ContractError if bad
    return cluster_->nodes_in_site(site);
  }

  /// The DSL's defaults: ClusterConfig's, but 250 ms aggregation rounds
  /// and the worker count the options ask for.
  static core::ClusterConfig initial_config(const ScenarioOptions& options) {
    core::ClusterConfig config;
    config.engine = options.engine;
    config.node.scribe.aggregation_interval = util::SimTime::millis(250);
    return config;
  }

  util::Result<void> ensure_cluster(const Directive& d) {
    if (cluster_ != nullptr) return {};
    // A declared sampler needs a registry to sample, whatever the CLI said.
    config_.metrics =
        options_.metrics || options_.trace || timeseries_interval_ > util::SimTime::zero();
    cluster_ = std::make_unique<core::RBayCluster>(config_);
    for (auto& spec : pending_specs_) cluster_->add_tree_spec(std::move(spec));
    pending_specs_.clear();
    cluster_->set_taxonomy(std::move(taxonomy_));
    if (timeseries_interval_ > util::SimTime::zero()) {
      timeseries_ = std::make_unique<obs::TimeSeries>(
          cluster_->engine(), *cluster_->metrics(), timeseries_interval_,
          timeseries_capacity_);
      for (auto& rule : pending_rules_) timeseries_->add_rule(std::move(rule));
      pending_rules_.clear();
      timeseries_->start();
    }
    (void)d;
    return {};
  }

  // --- directive dispatch ---------------------------------------------------

  util::Result<void> apply(const Directive& d) {
    try {
      return apply_inner(d);
    } catch (const std::exception& e) {
      return error_at(d.line, e.what());
    }
  }

  util::Result<void> apply_inner(const Directive& d) {
    const auto& kw = d.keyword;
    if (kw == "topology") return do_topology(d);
    auto& scribe_cfg = config_.node.scribe;
    auto& query_cfg = config_.node.query;
    if (kw == "seed") return set_u64(d, config_.seed);
    if (kw == "aggregation") return set_ms(d, scribe_cfg.aggregation_interval);
    if (kw == "heartbeat") return set_ms(d, scribe_cfg.heartbeat_interval);
    if (kw == "max-attempts") return set_int(d, query_cfg.max_attempts);
    if (kw == "anycast-timeout") return set_ms(d, scribe_cfg.anycast_timeout);
    if (kw == "max-staleness") return set_ms(d, scribe_cfg.max_staleness);
    if (kw == "site-timeout") return set_ms(d, query_cfg.site_timeout);
    if (kw == "reservation-hold") return set_ms(d, query_cfg.reservation_hold);
    if (kw == "admission-window") return do_admission_window(d);
    if (kw == "cache-ttl") return set_ms(d, query_cfg.qplane.cache_ttl);
    if (kw == "batch-probes") return do_batch_probes(d);
    if (kw == "fan-in-cap") return set_int(d, scribe_cfg.fan_in_cap);
    if (kw == "root-set") return set_int(d, scribe_cfg.root_set);
    if (kw == "tree") return do_tree(d);
    if (kw == "tree-exists") return do_tree_exists(d);
    if (kw == "taxonomy-major") return do_taxonomy_major(d);
    if (kw == "taxonomy-link") return do_taxonomy_link(d);
    if (kw == "nodes") return do_nodes(d);
    if (kw == "post") return do_post(d);
    if (kw == "remove") return do_remove(d);
    if (kw == "handler") return do_handler(d);
    if (kw == "monitor") return do_monitor(d);
    if (kw == "finalize") return do_finalize(d);
    if (kw == "run") return do_run(d);
    if (kw == "query") return do_query(d);
    if (kw == "query-storm") return do_query_storm(d);
    if (kw == "release") return do_release(d);
    if (kw == "commit") return do_commit(d);
    if (kw == "renew") return do_renew(d);
    if (kw == "admin-deliver") return do_admin_deliver(d);
    if (kw == "admin-hide" || kw == "admin-expose") return do_admin_hide_expose(d);
    if (kw == "use-query") return do_use_query(d);
    if (kw == "hide" || kw == "expose") return do_hide_expose(d);
    if (kw == "fail" || kw == "recover") return do_fail_recover(d);
    if (kw == "crash-root") return do_crash_root(d);
    if (kw == "recover-root") return do_recover_root(d);
    if (kw == "fault-schedule") return do_fault_schedule(d);
    if (kw == "timeseries") return do_timeseries(d);
    if (kw == "alert") return do_alert(d);
    if (kw == "watchdog") return do_watchdog(d);
    if (kw == "health-publish") return do_health_publish(d);
    if (kw == "check-invariants") return do_check_invariants(d);
    if (kw == "expect") return do_expect(d);
    if (kw == "print") {
      report_.output.push_back(d.raw_tail);
      return {};
    }
    if (kw == "stats") return do_stats(d);
    return error_at(d.line, "unknown directive '" + kw + "'");
  }

  util::Result<void> do_topology(const Directive& d) {
    if (cluster_ != nullptr) return error_at(d.line, "topology must precede 'nodes'");
    if (d.args.empty()) return error_at(d.line, "topology needs a kind");
    if (d.args[0] == "ec2") {
      config_.topology = net::Topology::ec2_eight_sites();
      return {};
    }
    if (d.args[0] == "single") {
      config_.topology = net::Topology::single_site();
      return {};
    }
    if (d.args[0] == "uniform" && d.args.size() == 4) {
      config_.topology = net::Topology::uniform(std::stoul(d.args[1]),
                                                std::stod(d.args[2]), std::stod(d.args[3]));
      return {};
    }
    return error_at(d.line, "topology: expected 'ec2', 'single', or 'uniform K intra cross'");
  }

  util::Result<void> set_u64(const Directive& d, std::uint64_t& target) {
    if (d.args.size() != 1) return error_at(d.line, d.keyword + " needs one value");
    target = std::strtoull(d.args[0].c_str(), nullptr, 10);
    return {};
  }
  util::Result<void> set_int(const Directive& d, int& target) {
    if (d.args.size() != 1) return error_at(d.line, d.keyword + " needs one value");
    target = std::stoi(d.args[0]);
    return {};
  }
  util::Result<void> set_ms(const Directive& d, util::SimTime& target) {
    if (d.args.size() != 1) return error_at(d.line, d.keyword + " needs milliseconds");
    target = util::SimTime::millis(std::stod(d.args[0]));
    return {};
  }

  /// admission-window <slots> [queue] — in-flight budget per query
  /// interface plus an optional FIFO backlog; past both, queries shed.
  util::Result<void> do_admission_window(const Directive& d) {
    if (d.args.empty() || d.args.size() > 2) {
      return error_at(d.line, "admission-window needs: <slots> [queue]");
    }
    auto& qplane = config_.node.query.qplane;
    qplane.admission_window = std::stoi(d.args[0]);
    qplane.admission_queue = d.args.size() == 2 ? std::stoi(d.args[1]) : 0;
    return {};
  }

  util::Result<void> do_batch_probes(const Directive& d) {
    if (d.args.size() != 1 || (d.args[0] != "on" && d.args[0] != "off")) {
      return error_at(d.line, "batch-probes needs: on|off");
    }
    config_.node.query.qplane.batch_probes = d.args[0] == "on";
    return {};
  }

  util::Result<void> do_tree(const Directive& d) {
    if (d.args.size() != 3) return error_at(d.line, "tree needs: <attr> <op> <literal>");
    auto op = parse_op(d.args[1]);
    if (!op.ok()) return error_at(d.line, op.error());
    auto literal = parse_literal(d.args[2]);
    if (!literal.ok()) return error_at(d.line, literal.error());
    pending_specs_.push_back(core::TreeSpec::from_predicate(
        {d.args[0], op.value(), literal.take()}));
    return {};
  }

  util::Result<void> do_tree_exists(const Directive& d) {
    if (d.args.size() != 1) return error_at(d.line, "tree-exists needs: <attr>");
    pending_specs_.push_back(core::TreeSpec::existence(d.args[0]));
    return {};
  }

  util::Result<void> do_taxonomy_major(const Directive& d) {
    if (d.args.size() != 1) return error_at(d.line, "taxonomy-major needs: <attr>");
    taxonomy_.add_major(d.args[0]);
    return {};
  }

  util::Result<void> do_taxonomy_link(const Directive& d) {
    if (d.args.size() != 2) return error_at(d.line, "taxonomy-link needs: <attr> <parent>");
    if (!taxonomy_.link(d.args[0], d.args[1])) {
      return error_at(d.line, "taxonomy-link refused (cycle?)");
    }
    return {};
  }

  util::Result<void> do_nodes(const Directive& d) {
    if (d.args.size() != 2) return error_at(d.line, "nodes needs: <site> <count>");
    if (finalized_) return error_at(d.line, "nodes after finalize");
    auto ensured = ensure_cluster(d);
    if (!ensured.ok()) return ensured;
    const auto site = config_.topology.site_by_name(d.args[0]);
    const auto count = std::stoul(d.args[1]);
    for (std::size_t i = 0; i < count; ++i) cluster_->add_node(site);
    return {};
  }

  util::Result<void> do_post(const Directive& d) {
    if (d.args.size() != 3) return error_at(d.line, "post needs: <site|*> <attr> <literal>");
    auto targets = nodes_of(d, d.args[0]);
    if (!targets.ok()) return util::make_error(targets.error());
    auto literal = parse_literal(d.args[2]);
    if (!literal.ok()) return error_at(d.line, literal.error());
    for (const auto idx : targets.value()) {
      auto posted = cluster_->node(idx).post(d.args[1], literal.value());
      if (!posted.ok()) return error_at(d.line, posted.error());
    }
    return {};
  }

  util::Result<void> do_remove(const Directive& d) {
    if (d.args.size() != 2) return error_at(d.line, "remove needs: <site[:i]|*> <attr>");
    auto targets = nodes_of(d, d.args[0]);
    if (!targets.ok()) return util::make_error(targets.error());
    for (const auto idx : targets.value()) {
      cluster_->node(idx).remove_attribute(d.args[1]);
    }
    return {};
  }

  util::Result<void> do_handler(const Directive& d) {
    if (d.args.size() != 2) {
      return error_at(d.line, "handler needs: <site|*> <attr> <<EOF ... EOF");
    }
    if (d.heredoc.empty()) return error_at(d.line, "handler needs a heredoc body");
    auto targets = nodes_of(d, d.args[0]);
    if (!targets.ok()) return util::make_error(targets.error());
    for (const auto idx : targets.value()) {
      auto attached =
          cluster_->node(idx).attributes().attach_handlers(d.args[1], d.heredoc);
      if (!attached.ok()) return error_at(d.line, attached.error());
    }
    return {};
  }

  util::Result<void> do_monitor(const Directive& d) {
    // monitor <site|*> <attr> walk <init> <min> <max> <step> <interval_ms>
    if (d.args.size() != 8 || d.args[2] != "walk") {
      return error_at(d.line,
                      "monitor needs: <site|*> <attr> walk <init> <min> <max> <step> <ms>");
    }
    auto targets = nodes_of(d, d.args[0]);
    if (!targets.ok()) return util::make_error(targets.error());
    for (const auto idx : targets.value()) {
      cluster_->node(idx).enable_monitor(
          {{d.args[1], monitor::RandomWalk{std::stod(d.args[3]), std::stod(d.args[4]),
                                           std::stod(d.args[5]), std::stod(d.args[6])}}},
          util::SimTime::millis(std::stod(d.args[7])));
    }
    return {};
  }

  util::Result<void> do_finalize(const Directive& d) {
    if (cluster_ == nullptr) return error_at(d.line, "nothing to finalize (no nodes)");
    if (finalized_) return error_at(d.line, "finalize called twice");
    cluster_->finalize();
    finalized_ = true;
    return {};
  }

  util::Result<void> do_run(const Directive& d) {
    if (cluster_ == nullptr) return error_at(d.line, "run before any nodes exist");
    if (d.args.size() != 1) return error_at(d.line, "run needs a duration (e.g. 500ms, 2s)");
    auto duration = parse_duration(d.args[0]);
    if (!duration.ok()) return error_at(d.line, duration.error());
    cluster_->run_for(duration.value());
    cluster_->run();
    return {};
  }

  util::Result<void> do_query(const Directive& d) {
    if (!finalized_) return error_at(d.line, "query before finalize");
    if (d.args.size() < 2) return error_at(d.line, "query needs: <site[:i]> <SQL...>");
    auto origins = nodes_of(d, d.args[0]);
    if (!origins.ok()) return util::make_error(origins.error());
    const auto& members = origins.value();
    // Bare site name: a stable non-gateway member when there is one.
    const auto from = members.at(members.size() > 1 ? 1 : 0);
    // SQL = raw tail minus the site word.
    auto sql = d.raw_tail;
    const auto site_pos = sql.find(d.args[0]);
    sql = sql.substr(site_pos + d.args[0].size());

    last_query_node_ = from;
    bool done = false;
    cluster_->node(from).query().execute_sql(sql, [&](const core::QueryOutcome& o) {
      last_outcome_ = o;
      done = true;
    });
    cluster_->run();
    if (!done) return error_at(d.line, "query did not complete (missing 'run'?)");
    ++report_.queries;
    if (last_outcome_.satisfied) ++report_.queries_satisfied;
    query_history_.emplace_back(from, last_outcome_);

    std::ostringstream os;
    os << "query[" << report_.queries << "] "
       << (last_outcome_.satisfied ? "satisfied" : "DENIED") << " in "
       << last_outcome_.latency().to_string() << " attempts=" << last_outcome_.attempts;
    if (last_outcome_.count > 0 || sql.find("COUNT") != std::string::npos) {
      os << " count=" << last_outcome_.count;
    }
    if (last_outcome_.stale) {
      os << " stale(age=" << last_outcome_.staleness.to_string() << ")";
    }
    if (last_outcome_.cached) os << " cached";
    if (last_outcome_.shed) os << " shed";
    for (const auto& c : last_outcome_.nodes) {
      os << " " << c.node.id.to_hex().substr(0, 8) << "@"
         << config_.topology.site(c.node.site).name;
    }
    if (!last_outcome_.error.empty()) os << " error: " << last_outcome_.error;
    report_.output.push_back(os.str());
    return {};
  }

  /// query-storm <count> <site[:i]> <SQL...> — issue N copies of the same
  /// query concurrently from one node: the flash-crowd shape that engages
  /// admission, probe batching, and the answer cache all at once.  Storm
  /// results are checked with the storm-* expectations; the single-query
  /// selection (release/commit/use-query) is left untouched.
  util::Result<void> do_query_storm(const Directive& d) {
    if (!finalized_) return error_at(d.line, "query-storm before finalize");
    if (d.args.size() < 3) {
      return error_at(d.line, "query-storm needs: <count> <site[:i]> <SQL...>");
    }
    const auto n = std::stoul(d.args[0]);
    if (n == 0) return error_at(d.line, "query-storm count must be positive");
    auto origins = nodes_of(d, d.args[1]);
    if (!origins.ok()) return util::make_error(origins.error());
    const auto& members = origins.value();
    const auto from = members.at(members.size() > 1 ? 1 : 0);
    // SQL = raw tail minus "<count> <site>".
    auto sql = d.raw_tail;
    const auto site_pos = sql.find(d.args[1], d.args[0].size());
    sql = sql.substr(site_pos + d.args[1].size());

    storm_outcomes_.clear();
    storm_outcomes_.reserve(n);
    auto& query = cluster_->node(from).query();
    for (std::size_t i = 0; i < n; ++i) {
      query.execute_sql(sql, [this](const core::QueryOutcome& o) {
        storm_outcomes_.push_back(o);
      });
    }
    cluster_->run();
    if (storm_outcomes_.size() != n) {
      return error_at(d.line, "storm incomplete: " + std::to_string(storm_outcomes_.size()) +
                                  "/" + std::to_string(n) + " queries finished");
    }
    std::size_t satisfied = 0;
    std::size_t shed = 0;
    std::size_t cached = 0;
    for (const auto& o : storm_outcomes_) {
      if (o.satisfied) ++satisfied;
      if (o.shed) ++shed;
      if (o.cached) ++cached;
    }
    report_.queries += static_cast<int>(n);
    report_.queries_satisfied += static_cast<int>(satisfied);
    std::ostringstream os;
    os << "storm[" << n << "] satisfied=" << satisfied << " shed=" << shed
       << " cached=" << cached;
    report_.output.push_back(os.str());
    return {};
  }

  util::Result<void> do_release(const Directive& d) {
    if (last_query_node_ == SIZE_MAX) return error_at(d.line, "no query to release");
    cluster_->node(last_query_node_).query().release(last_outcome_);
    cluster_->run();
    return {};
  }

  util::Result<void> do_commit(const Directive& d) {
    if (last_query_node_ == SIZE_MAX) return error_at(d.line, "no query to commit");
    util::SimTime lease = util::SimTime::zero();
    if (!d.args.empty()) {
      auto parsed = parse_duration(d.args[0]);
      if (!parsed.ok()) return error_at(d.line, parsed.error());
      lease = parsed.value();
    }
    cluster_->node(last_query_node_).query().commit(last_outcome_, lease);
    cluster_->run();
    return {};
  }

  util::Result<void> do_renew(const Directive& d) {
    if (last_query_node_ == SIZE_MAX) return error_at(d.line, "no query to renew");
    if (d.args.size() != 1) return error_at(d.line, "renew needs a lease duration");
    auto parsed = parse_duration(d.args[0]);
    if (!parsed.ok()) return error_at(d.line, parsed.error());
    cluster_->node(last_query_node_).query().renew(last_outcome_, parsed.value());
    cluster_->run();
    return {};
  }

  /// Re-selects an earlier query (1-based) so release/commit/renew can act
  /// on a reservation other than the most recent one — counterexample
  /// exports release commits made several ops earlier.
  util::Result<void> do_use_query(const Directive& d) {
    if (d.args.size() != 1) return error_at(d.line, "use-query needs: <query-number>");
    const auto n = static_cast<std::size_t>(std::stoul(d.args[0]));
    if (n == 0 || n > query_history_.size()) {
      return error_at(d.line, "query number out of range (have " +
                                  std::to_string(query_history_.size()) + ")");
    }
    last_query_node_ = query_history_[n - 1].first;
    last_outcome_ = query_history_[n - 1].second;
    return {};
  }

  util::Result<void> do_admin_hide_expose(const Directive& d) {
    if (d.args.size() != 3) {
      return error_at(d.line, d.keyword + " needs: <site> <tree-canonical> <attr>");
    }
    const auto site = config_.topology.site_by_name(d.args[0]);
    const auto members = cluster_->nodes_in_site(site);
    const core::TreeSpec* spec = nullptr;
    for (const auto& s : cluster_->tree_specs()) {
      if (s.canonical == d.args[1]) spec = &s;
    }
    if (spec == nullptr) return error_at(d.line, "unknown tree '" + d.args[1] + "'");
    cluster_->node(members.front())
        .admin_set_hidden(*spec, d.args[2], d.keyword == "admin-hide");
    cluster_->run();
    return {};
  }

  util::Result<void> do_admin_deliver(const Directive& d) {
    if (d.args.size() < 4) {
      return error_at(d.line, "admin-deliver needs: <site> <tree-canonical> <attr> <payload>");
    }
    const auto site = config_.topology.site_by_name(d.args[0]);
    const auto members = cluster_->nodes_in_site(site);
    const core::TreeSpec* spec = nullptr;
    for (const auto& s : cluster_->tree_specs()) {
      if (s.canonical == d.args[1]) spec = &s;
    }
    if (spec == nullptr) return error_at(d.line, "unknown tree '" + d.args[1] + "'");
    cluster_->node(members.front()).admin_deliver(*spec, d.args[2], d.args[3]);
    cluster_->run();
    return {};
  }

  util::Result<void> do_hide_expose(const Directive& d) {
    if (d.args.size() != 2) return error_at(d.line, d.keyword + " needs: <site|*> <attr>");
    auto targets = nodes_of(d, d.args[0]);
    if (!targets.ok()) return util::make_error(targets.error());
    for (const auto idx : targets.value()) {
      cluster_->node(idx).set_hidden(d.args[1], d.keyword == "hide");
    }
    cluster_->run();
    return {};
  }

  util::Result<void> do_fail_recover(const Directive& d) {
    if (d.args.size() != 2) return error_at(d.line, d.keyword + " needs: <site> <index>");
    const auto site = config_.topology.site_by_name(d.args[0]);
    const auto members = cluster_->nodes_in_site(site);
    const auto idx = static_cast<std::size_t>(std::stoul(d.args[1]));
    if (idx >= members.size()) return error_at(d.line, "node index out of range");
    if (d.keyword == "fail") {
      cluster_->overlay().fail_node(members[idx]);
    } else {
      cluster_->overlay().recover_node(members[idx]);
      cluster_->node(members[idx]).reevaluate_subscriptions();
    }
    cluster_->run();
    return {};
  }

  util::Result<void> do_crash_root(const Directive& d) {
    if (!finalized_) return error_at(d.line, "crash-root before finalize");
    if (d.args.empty()) return error_at(d.line, "crash-root needs: <site> [tree-index]");
    const auto site = config_.topology.site_by_name(d.args[0]);
    const std::size_t tree = d.args.size() > 1 ? std::stoul(d.args[1]) : 0;
    if (tree >= cluster_->tree_specs().size()) {
      return error_at(d.line, "tree index out of range");
    }
    const auto topic =
        core::site_topic(cluster_->tree_specs()[tree].canonical, d.args[0]);
    const auto victim = cluster_->overlay().root_of_in_site(topic, site);
    if (cluster_->overlay().is_failed(victim)) {
      return error_at(d.line, "that tree's root in " + d.args[0] + " is already down");
    }
    cluster_->overlay().fail_node(victim);
    last_crashed_root_ = victim;
    // Drain the zero-delay promotion event so a replica holder takes over
    // before the next directive observes the tree.
    cluster_->run();
    report_.output.push_back("crash-root " + d.args[0] + ": node index " +
                             std::to_string(victim));
    return {};
  }

  util::Result<void> do_recover_root(const Directive& d) {
    if (!last_crashed_root_.has_value()) {
      return error_at(d.line, "recover-root without a prior crash-root");
    }
    cluster_->overlay().recover_node(*last_crashed_root_);
    cluster_->node(*last_crashed_root_).reevaluate_subscriptions();
    last_crashed_root_.reset();
    cluster_->run();
    return {};
  }

  util::Result<void> do_fault_schedule(const Directive& d) {
    if (!finalized_) return error_at(d.line, "fault-schedule before finalize");
    if (d.heredoc.empty()) return error_at(d.line, "fault-schedule needs a heredoc body");
    auto schedule = fault::parse_schedule(d.heredoc);
    if (!schedule.ok()) return error_at(d.line, schedule.error());
    // One injector per scenario: its applied-action log accumulates across
    // schedules and is echoed when a later check-invariants fails.
    if (injector_ == nullptr) {
      injector_ = std::make_unique<fault::FaultInjector>(*cluster_);
    }
    auto armed = injector_->arm(schedule.value());
    if (!armed.ok()) return error_at(d.line, armed.error());
    report_.output.push_back("fault-schedule armed: " +
                             std::to_string(schedule.value().size()) + " action(s)");
    return {};
  }

  /// timeseries <interval_ms> [capacity] — declare the registry sampler.
  /// Config directive (before 'nodes'): the sampler attaches when the
  /// cluster is created, and its presence forces metrics on.
  util::Result<void> do_timeseries(const Directive& d) {
    if (cluster_ != nullptr) return error_at(d.line, "timeseries must precede 'nodes'");
    if (d.args.empty() || d.args.size() > 2) {
      return error_at(d.line, "timeseries needs: <interval_ms> [capacity]");
    }
    timeseries_interval_ = util::SimTime::millis(std::stod(d.args[0]));
    if (timeseries_interval_ <= util::SimTime::zero()) {
      return error_at(d.line, "timeseries interval must be positive");
    }
    if (d.args.size() == 2) {
      timeseries_capacity_ = std::stoul(d.args[1]);
      if (timeseries_capacity_ == 0) return error_at(d.line, "timeseries capacity must be > 0");
    }
    return {};
  }

  /// alert <name> counter|gauge <metric> <op> <threshold> [alpha A] [for N]
  util::Result<void> do_alert(const Directive& d) {
    if (cluster_ != nullptr) return error_at(d.line, "alert must precede 'nodes'");
    if (timeseries_interval_ <= util::SimTime::zero()) {
      return error_at(d.line, "alert needs a prior 'timeseries' directive");
    }
    if (d.args.size() < 5) {
      return error_at(d.line,
                      "alert needs: <name> counter|gauge <metric> <op> <threshold> "
                      "[alpha A] [for N]");
    }
    obs::AlertRule rule;
    rule.name = d.args[0];
    if (d.args[1] == "counter") {
      rule.is_gauge = false;
    } else if (d.args[1] == "gauge") {
      rule.is_gauge = true;
    } else {
      return error_at(d.line, "alert kind must be 'counter' or 'gauge'");
    }
    rule.metric = d.args[2];
    if (d.args[3] == ">") {
      rule.op = '>';
    } else if (d.args[3] == "<") {
      rule.op = '<';
    } else {
      return error_at(d.line, "alert op must be '>' or '<'");
    }
    rule.threshold = std::stod(d.args[4]);
    for (std::size_t i = 5; i + 1 < d.args.size(); i += 2) {
      if (d.args[i] == "alpha") {
        rule.alpha = std::stod(d.args[i + 1]);
        if (rule.alpha <= 0.0 || rule.alpha > 1.0) {
          return error_at(d.line, "alert alpha must be in (0, 1]");
        }
      } else if (d.args[i] == "for") {
        rule.for_windows = std::stoi(d.args[i + 1]);
        if (rule.for_windows < 1) return error_at(d.line, "alert 'for' must be >= 1");
      } else {
        return error_at(d.line, "unknown alert option '" + d.args[i] + "'");
      }
    }
    pending_rules_.push_back(std::move(rule));
    return {};
  }

  /// watchdog <period_ms> [checker...] — start the online invariant
  /// watchdog (after finalize).  Transient violations are tolerated and
  /// measured; violations still open when the scenario ends fail it.
  util::Result<void> do_watchdog(const Directive& d) {
    if (!finalized_) return error_at(d.line, "watchdog after finalize only");
    if (watchdog_ != nullptr) return error_at(d.line, "watchdog already running");
    if (d.args.empty()) return error_at(d.line, "watchdog needs: <period_ms> [checker...]");
    const auto period = util::SimTime::millis(std::stod(d.args[0]));
    if (period <= util::SimTime::zero()) {
      return error_at(d.line, "watchdog period must be positive");
    }
    auto checks = fault::Watchdog::parse_checks({d.args.begin() + 1, d.args.end()});
    if (!checks.ok()) return error_at(d.line, checks.error());
    watchdog_ = std::make_unique<fault::Watchdog>(*cluster_, period, checks.take());
    watchdog_->start();
    return {};
  }

  /// health-publish <interval_ms> [queue-depth N]
  util::Result<void> do_health_publish(const Directive& d) {
    if (!finalized_) return error_at(d.line, "health-publish after finalize only");
    if (cluster_->health() != nullptr) return error_at(d.line, "health-publish already on");
    if (d.args.empty()) {
      return error_at(d.line, "health-publish needs: <interval_ms> [queue-depth N]");
    }
    core::HealthConfig config;
    config.interval = util::SimTime::millis(std::stod(d.args[0]));
    if (config.interval <= util::SimTime::zero()) {
      return error_at(d.line, "health-publish interval must be positive");
    }
    for (std::size_t i = 1; i + 1 < d.args.size(); i += 2) {
      if (d.args[i] == "queue-depth") {
        config.overload_queue_depth = std::stol(d.args[i + 1]);
      } else {
        return error_at(d.line, "unknown health-publish option '" + d.args[i] + "'");
      }
    }
    auto& publisher = cluster_->enable_health(config);
    // Seed the attributes now so the first aggregation round already
    // carries them (the periodic timer fires one interval from now).
    publisher.publish_all();
    cluster_->run();
    return {};
  }

  util::Result<void> do_check_invariants(const Directive& d) {
    if (!finalized_) return error_at(d.line, "check-invariants before finalize");
    const auto checkers = fault::find_checkers(d.args);
    if (!checkers.ok()) return error_at(d.line, checkers.error());
    const fault::InvariantReport report = fault::run_checkers(*cluster_, checkers.value());
    ++report_.expectations;
    if (!report.ok()) {
      std::string msg = "invariant check failed (seed " + std::to_string(config_.seed) +
                        "):\n" + report.to_string();
      if (injector_ != nullptr && !injector_->log().empty()) {
        msg += "applied fault log:\n" + injector_->log_text();
      }
      msg += fault::failure_dump(*cluster_, report);
      return error_at(d.line, msg);
    }
    report_.output.push_back("invariants ok");
    return {};
  }

  util::Result<void> do_expect(const Directive& d) {
    ++report_.expectations;
    if (d.args.empty()) return error_at(d.line, "expect needs a condition");
    const auto& what = d.args[0];
    if (what == "satisfied") {
      if (!last_outcome_.satisfied) {
        return error_at(d.line, "expected satisfied, query was denied (" +
                                    (last_outcome_.error.empty() ? "no candidates"
                                                                 : last_outcome_.error) +
                                    ")");
      }
      return {};
    }
    if (what == "denied") {
      if (last_outcome_.satisfied) return error_at(d.line, "expected denial, query satisfied");
      return {};
    }
    if (what == "stale") {
      if (!last_outcome_.stale) {
        return error_at(d.line, "expected a stale (degraded) answer, got a fresh one");
      }
      return {};
    }
    if (what == "fresh") {
      if (last_outcome_.stale) {
        return error_at(d.line, "expected a fresh answer, got a stale one (age " +
                                    last_outcome_.staleness.to_string() + ")");
      }
      return {};
    }
    if (what == "nodes" && d.args.size() == 2) {
      const auto want = std::stoul(d.args[1]);
      if (last_outcome_.nodes.size() != want) {
        return error_at(d.line, "expected " + d.args[1] + " nodes, got " +
                                    std::to_string(last_outcome_.nodes.size()));
      }
      return {};
    }
    if (what == "count" && d.args.size() == 2) {
      const auto want = std::stod(d.args[1]);
      if (last_outcome_.count != want) {
        return error_at(d.line, "expected count " + d.args[1] + ", got " +
                                    std::to_string(last_outcome_.count));
      }
      return {};
    }
    if (what == "shed") {
      if (!last_outcome_.shed) {
        return error_at(d.line, "expected the query to be shed by admission control");
      }
      return {};
    }
    if (what == "cached") {
      if (!last_outcome_.cached) {
        return error_at(d.line, "expected a cached (answer-cache) result, got a direct one");
      }
      return {};
    }
    if (what == "uncached") {
      if (last_outcome_.cached) {
        return error_at(d.line, "expected a direct (tree-walk) answer, got a cached one");
      }
      return {};
    }
    if (what == "staleness-le" && d.args.size() == 2) {
      const auto bound = util::SimTime::millis(std::stod(d.args[1]));
      if (last_outcome_.staleness > bound) {
        return error_at(d.line, "expected staleness <= " + d.args[1] + "ms, got " +
                                    last_outcome_.staleness.to_string());
      }
      return {};
    }
    if (what == "storm-satisfied" && d.args.size() == 2) {
      const auto want = std::stoul(d.args[1]);
      std::size_t got = 0;
      for (const auto& o : storm_outcomes_) {
        if (o.satisfied) ++got;
      }
      if (got != want) {
        return error_at(d.line, "expected " + d.args[1] + " satisfied storm queries, got " +
                                    std::to_string(got));
      }
      return {};
    }
    if (what == "storm-shed" && d.args.size() == 2) {
      const auto want = std::stoul(d.args[1]);
      std::size_t got = 0;
      for (const auto& o : storm_outcomes_) {
        if (o.shed) ++got;
      }
      if (got != want) {
        return error_at(d.line, "expected " + d.args[1] + " shed storm queries, got " +
                                    std::to_string(got));
      }
      return {};
    }
    if (what == "storm-count" && d.args.size() == 2) {
      // Every satisfied storm query must report this COUNT — the batcher's
      // fan-out and the cache both have to agree with the live answer.
      const auto want = std::stod(d.args[1]);
      for (std::size_t i = 0; i < storm_outcomes_.size(); ++i) {
        const auto& o = storm_outcomes_[i];
        if (o.satisfied && o.count != want) {
          return error_at(d.line, "storm query " + std::to_string(i + 1) + ": expected count " +
                                      d.args[1] + ", got " + std::to_string(o.count));
        }
      }
      return {};
    }
    if (what == "split" || what == "delegated") {
      // Hot-tree load balancing happened somewhere in the federation: at
      // least one live node initiated a split ("split") or successfully
      // re-parented children to a delegate ("delegated").
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < cluster_->size(); ++i) {
        if (cluster_->overlay().is_failed(i)) continue;
        auto& sc = cluster_->node(i).scribe();
        total += (what == "split") ? sc.split_count() : sc.delegation_count();
      }
      if (total == 0) {
        return error_at(d.line, "expected at least one " +
                                    std::string(what == "split" ? "tree split" : "delegation") +
                                    ", none happened");
      }
      return {};
    }
    if (what == "metric" && d.args.size() == 4) {
      // expect metric <name> <op> <value> — federation counter or gauge;
      // missing metrics read as 0 so absence is assertable.
      if (cluster_ == nullptr || cluster_->metrics() == nullptr) {
        return error_at(d.line, "expect metric needs metrics enabled");
      }
      const obs::Scope& fed = cluster_->metrics()->fed();
      double got = 0.0;
      if (const auto* c = fed.find_counter(d.args[1])) {
        got = static_cast<double>(c->value());
      } else if (const auto* g = fed.find_gauge(d.args[1])) {
        got = static_cast<double>(g->value());
      }
      const auto& op = d.args[2];
      const double want = std::stod(d.args[3]);
      bool ok = false;
      if (op == "=" || op == "==") {
        ok = got == want;
      } else if (op == "!=") {
        ok = got != want;
      } else if (op == ">") {
        ok = got > want;
      } else if (op == ">=") {
        ok = got >= want;
      } else if (op == "<") {
        ok = got < want;
      } else if (op == "<=") {
        ok = got <= want;
      } else {
        return error_at(d.line, "unknown metric comparison '" + op + "'");
      }
      if (!ok) {
        std::ostringstream os;
        os << "expected metric " << d.args[1] << " " << op << " " << want << ", got " << got;
        return error_at(d.line, os.str());
      }
      return {};
    }
    if (what == "health-count" && d.args.size() == 2) {
      // The last COUNT answer (served by the 5-step protocol over the
      // rbay.health.overloaded tree) must equal the publisher's god-view
      // ground truth — the self-hosted health acceptance check.
      if (cluster_->health() == nullptr) {
        return error_at(d.line, "expect health-count needs a prior health-publish");
      }
      std::size_t truth = 0;
      if (d.args[1] == "overloaded") {
        truth = cluster_->health()->published_overloaded();
      } else if (d.args[1] == "healthy") {
        truth = cluster_->health()->published_healthy();
      } else {
        return error_at(d.line, "expect health-count needs: overloaded|healthy");
      }
      if (last_outcome_.count != static_cast<double>(truth)) {
        return error_at(d.line, "health COUNT answer " + std::to_string(last_outcome_.count) +
                                    " disagrees with ground truth " + std::to_string(truth));
      }
      return {};
    }
    if (what == "storm-staleness-le" && d.args.size() == 2) {
      const auto bound = util::SimTime::millis(std::stod(d.args[1]));
      for (std::size_t i = 0; i < storm_outcomes_.size(); ++i) {
        if (storm_outcomes_[i].staleness > bound) {
          return error_at(d.line, "storm query " + std::to_string(i + 1) + ": staleness " +
                                      storm_outcomes_[i].staleness.to_string() + " exceeds " +
                                      d.args[1] + "ms");
        }
      }
      return {};
    }
    return error_at(d.line, "unknown expectation '" + what + "'");
  }

  util::Result<void> do_stats(const Directive& d) {
    if (cluster_ == nullptr) return error_at(d.line, "stats before any nodes exist");
    const auto& stats = cluster_->network().stats();
    std::ostringstream os;
    os << "stats: nodes=" << cluster_->size() << " messages=" << stats.messages_sent
       << " bytes=" << stats.bytes_sent << " dropped=" << stats.messages_dropped
       << " vtime=" << cluster_->engine().now().to_string();
    report_.output.push_back(os.str());
    return {};
  }

  // --- state ----------------------------------------------------------------

  ScenarioOptions options_;
  /// What the directives before `nodes` configure; the cluster is built
  /// from it.
  core::ClusterConfig config_;
  std::optional<std::size_t> last_crashed_root_;
  core::Taxonomy taxonomy_;
  std::vector<core::TreeSpec> pending_specs_;
  util::SimTime timeseries_interval_ = util::SimTime::zero();  // zero: no sampler
  std::size_t timeseries_capacity_ = obs::TimeSeries::kDefaultCapacity;
  std::vector<obs::AlertRule> pending_rules_;
  std::unique_ptr<core::RBayCluster> cluster_;
  std::unique_ptr<obs::TimeSeries> timeseries_;     // after cluster_: dtor order
  std::unique_ptr<fault::Watchdog> watchdog_;       // after cluster_: dtor order
  std::unique_ptr<fault::FaultInjector> injector_;  // after cluster_: dtor order
  bool finalized_ = false;
  std::size_t last_query_node_ = SIZE_MAX;
  core::QueryOutcome last_outcome_;
  std::vector<core::QueryOutcome> storm_outcomes_;
  std::vector<std::pair<std::size_t, core::QueryOutcome>> query_history_;
  ScenarioReport report_;
};

}  // namespace

util::Result<ScenarioReport> run_scenario(const std::string& text,
                                          const ScenarioOptions& options) {
  auto directives = parse_scenario(text);
  if (!directives.ok()) return util::make_error(directives.error());
  Runner runner{options};
  return runner.run(directives.value());
}

}  // namespace rbay::tools
