// Quiet trees: aggregation reports and root replicas go out only when
// they carry news, a lost report is repaired by the heartbeat ack, only
// roots refresh (their replicas, once per refresh interval), and a clean
// node sleeps through the aggregation grid instead of waking every round.

#include <gtest/gtest.h>

#include <optional>

#include "core/cluster.hpp"
#include "obs/metrics.hpp"
#include "scribe/scribe_helpers.hpp"

namespace rbay::scribe {
namespace {

using testing::ScribeOverlay;
using util::SimTime;

/// Worker count from RBAY_SIM_THREADS, so the TSan lane runs these on
/// four workers.
sim::EngineConfig engine_config() { return sim::EngineConfig::from_env(); }

ScribeConfig quiet_config() {
  ScribeConfig cfg;
  cfg.aggregation_interval = SimTime::millis(250);
  cfg.max_staleness = SimTime::seconds(5);
  return cfg;
}

std::uint64_t counter(obs::Registry& reg, const char* name) {
  return reg.fed().counter(obs::MetricKey{name}).value();
}

TEST(QuietTrees, RefreshIntervalDerivesFromConfig) {
  ScribeOverlay so{2, net::Topology::single_site(), quiet_config(), 42, engine_config()};
  // min(8 x 250ms, 5s / 2)
  EXPECT_EQ(so.scribes[0]->refresh_interval(), SimTime::seconds(2));
  auto tight = quiet_config();
  tight.max_staleness = SimTime::seconds(1);
  ScribeOverlay so2{2, net::Topology::single_site(), tight, 42, engine_config()};
  EXPECT_EQ(so2.scribes[0]->refresh_interval(), SimTime::millis(500));
  // Never below one round.
  tight.max_staleness = SimTime::millis(100);
  ScribeOverlay so3{2, net::Topology::single_site(), tight, 42, engine_config()};
  EXPECT_EQ(so3.scribes[0]->refresh_interval(), SimTime::millis(250));
}

TEST(QuietTrees, SettledIdleFederationWakesOnlyAtRefreshDeadlines) {
  ScribeOverlay so{30, net::Topology::single_site(), quiet_config(), 42, engine_config()};
  obs::Registry reg;
  so.engine.set_metrics(&reg);
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(10));
  const auto root = so.overlay.root_of(topic);
  ASSERT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 30.0);

  const auto refresh = so.scribes[0]->refresh_interval();
  const auto reports0 = counter(reg, "scribe.agg_reports");
  const auto replicas0 = counter(reg, "scribe.root_replications");
  const auto executed0 = so.engine.executed();

  // Sample every node's pending wake-up once per grid step: a non-root
  // node never wakes, and the root's successive wake-ups sit exactly one
  // refresh interval apart.
  std::optional<SimTime> last_root_wake;
  int root_wakes = 0;
  const int steps = 4 * 8;  // four refresh intervals of 250ms rounds
  for (int step = 0; step < steps; ++step) {
    for (std::size_t i = 0; i < so.scribes.size(); ++i) {
      const auto wake = so.scribes[i]->next_round();
      if (i != root) {
        EXPECT_FALSE(wake.has_value()) << "non-root node " << i << " woke at step " << step;
        continue;
      }
      ASSERT_TRUE(wake.has_value()) << "the root must keep its replica refresh armed";
      if (last_root_wake && *last_root_wake != *wake) {
        EXPECT_EQ(*wake - *last_root_wake, refresh) << "the root woke off its refresh";
        ++root_wakes;
      }
      last_root_wake = wake;
    }
    so.engine.run_for(quiet_config().aggregation_interval);
  }
  EXPECT_GE(root_wakes, 3);
  EXPECT_LE(root_wakes, 4);

  // No report at all, and one replica per holder in each refresh interval.
  const auto windows = static_cast<std::uint64_t>(steps / 8 + 1);
  EXPECT_EQ(counter(reg, "scribe.agg_reports") - reports0, 0u);
  EXPECT_LE(counter(reg, "scribe.root_replications") - replicas0, 2 * windows);
  // The same 8 s under a report every round would run 30 x 32 round
  // firings alone; quiet, events are the root's round and its two
  // replica deliveries per refresh.
  EXPECT_LE(so.engine.executed() - executed0, windows * 3);
  EXPECT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 30.0);
}

TEST(QuietTrees, ChangedContributionReachesRootWithoutWaitingForRefresh) {
  ScribeOverlay so{20, net::Topology::single_site(), quiet_config(), 42, engine_config()};
  const TopicId topic = pastry::tree_id("CPU", "admin");
  so.subscribe_all(topic);
  for (auto& s : so.scribes) s->set_aggregation(topic, AggregateKind::Sum);
  so.engine.run_for(SimTime::seconds(5));
  const auto root = so.overlay.root_of(topic);
  ASSERT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 20.0);

  const std::size_t leaf = root == 0 ? 1 : 0;
  so.members[leaf]->set_contribution(11.0);
  // One round per tree level, far less than a refresh interval.
  so.engine.run_for(SimTime::millis(1500));
  EXPECT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 30.0);
}

TEST(QuietTrees, DroppedReportIsRepairedWithinOneHeartbeat) {
  auto cfg = quiet_config();
  cfg.heartbeat_interval = SimTime::millis(250);
  ScribeOverlay so{20, net::Topology::single_site(), cfg, 42, engine_config()};
  obs::Registry reg;
  so.engine.set_metrics(&reg);
  const TopicId topic = pastry::tree_id("CPU", "admin");
  so.subscribe_all(topic);
  for (auto& s : so.scribes) s->set_aggregation(topic, AggregateKind::Sum);
  so.engine.run_for(SimTime::seconds(5));
  const auto root = so.overlay.root_of(topic);
  ASSERT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 20.0);

  // A leaf whose parent is the root, so one lost report is the only news.
  std::optional<std::size_t> leaf;
  for (std::size_t i = 0; i < so.scribes.size() && !leaf; ++i) {
    const auto parent = so.scribes[i]->parent_of(topic);
    if (parent && parent->id == so.overlay.ref(root).id && so.scribes[i]->children_of(topic).empty()) {
      leaf = i;
    }
  }
  ASSERT_TRUE(leaf.has_value());
  const auto refresh = so.scribes[*leaf]->refresh_interval();

  // The fault schedule's `drop` action: every message is lost while the
  // leaf's next round reports its new value.
  const auto reports0 = counter(reg, "scribe.agg_reports");
  so.overlay.network().set_drop_probability(1.0);
  so.members[*leaf]->set_contribution(5.0);
  while (counter(reg, "scribe.agg_reports") == reports0) {
    ASSERT_LE(so.engine.now(), SimTime::seconds(6)) << "the leaf never reported";
    so.engine.run_for(SimTime::millis(1));
  }
  const auto lost_at = so.engine.now();
  so.overlay.network().set_drop_probability(0.0);
  EXPECT_EQ(counter(reg, "scribe.agg_reports") - reports0, 1u);
  EXPECT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 20.0);

  // The report is gone and the leaf never re-sends it: the root's next
  // heartbeat is answered with an ack carrying the value last reported.
  while (so.scribes[root]->aggregate_value(topic) != 24.0 &&
         so.engine.now() - lost_at <= refresh * std::int64_t{2}) {
    so.engine.run_for(SimTime::millis(10));
  }
  EXPECT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 24.0);
  EXPECT_LE(so.engine.now() - lost_at, cfg.heartbeat_interval + cfg.aggregation_interval);
  EXPECT_EQ(counter(reg, "scribe.report_repairs"), 1u);
  EXPECT_EQ(counter(reg, "scribe.agg_reports") - reports0, 1u) << "a repair is not a report";
}

TEST(QuietTrees, ForegroundChangeDoesNotLengthenRun) {
  // Two sites, so engine windows are bounded by the cross-site lookahead
  // rather than the 100ms single-site quantum.
  ScribeOverlay so{10, net::Topology::uniform(2, 0.5, 20.0), quiet_config(), 42, engine_config()};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  for (std::size_t i = 1; i < so.scribes.size(); ++i) {
    so.scribes[i]->subscribe(topic, so.members[i].get());
  }
  so.engine.run_for(SimTime::seconds(5));
  // Just past a grid instant, so the dirtied round is ~250ms away.
  so.engine.run_until(SimTime::seconds(6) + SimTime::millis(1));

  const auto before = so.engine.now();
  so.scribes[0]->subscribe(topic, so.members[0].get());
  so.engine.run();
  const auto wake = so.scribes[0]->next_round();
  ASSERT_TRUE(wake.has_value()) << "the join must arm a round";
  EXPECT_LT(so.engine.now(), *wake) << "run() waited for a background round";
  EXPECT_LT(so.engine.now() - before, SimTime::millis(200));
  EXPECT_EQ(so.engine.foreground_pending(), 0u);

  so.engine.run_for(SimTime::seconds(2));
  // One tree per site: each site root counts its own site's members.
  for (net::SiteId s = 0; s < 2; ++s) {
    EXPECT_DOUBLE_EQ(so.scribes[so.overlay.root_of_in_site(topic, s)]->aggregate_value(topic),
                     static_cast<double>(so.overlay.nodes_in_site(s).size()))
        << "site " << s;
  }
}

TEST(QuietTrees, RootFailoverServesStaleReadWithinMaxStaleness) {
  auto cfg = quiet_config();
  cfg.heartbeat_interval = SimTime::millis(250);
  ScribeOverlay so{24, net::Topology::single_site(), cfg, 42, engine_config()};
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(4));
  const auto root = so.overlay.root_of(topic);
  ASSERT_DOUBLE_EQ(so.scribes[root]->aggregate_value(topic), 24.0);

  // Crash the root late in its refresh interval: the replicas it left
  // behind are as old as quiet replication lets them get.
  const auto wake = so.scribes[root]->next_round();
  ASSERT_TRUE(wake.has_value());
  so.engine.run_until(*wake - SimTime::millis(10));
  const auto epoch_before = so.scribes[root]->root_epoch_of(topic);
  so.overlay.fail_node(root);
  so.engine.run();

  std::size_t promoted = SIZE_MAX;
  for (std::size_t i = 0; i < so.scribes.size(); ++i) {
    if (!so.overlay.is_failed(i) && so.scribes[i]->is_root_of(topic)) promoted = i;
  }
  ASSERT_NE(promoted, SIZE_MAX);
  EXPECT_TRUE(so.scribes[promoted]->is_degraded(topic));
  EXPECT_GE(so.scribes[promoted]->root_epoch_of(topic), epoch_before);

  const std::size_t prober = promoted == 0 ? 1 : 0;
  Scribe::SizeInfo info;
  bool done = false;
  so.scribes[prober]->probe_size(topic, [&](const Scribe::SizeInfo* i) {
    ASSERT_NE(i, nullptr) << "probe missed its deadline";
    info = *i;
    done = true;
  });
  so.engine.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(info.stale);
  EXPECT_DOUBLE_EQ(info.value, 24.0);
  EXPECT_GT(info.age, cfg.aggregation_interval) << "the snapshot should predate the crash";
  EXPECT_LE(info.age, so.scribes[prober]->refresh_interval() + cfg.aggregation_interval);
  EXPECT_LE(info.age, cfg.max_staleness);
}

TEST(QuietTrees, EpochAdvancesPerSendAndNeverRegresses) {
  ScribeOverlay so{16, net::Topology::single_site(), quiet_config(), 42, engine_config()};
  obs::Registry reg;
  so.engine.set_metrics(&reg);
  const TopicId topic = pastry::tree_id("GPU", "admin");
  so.subscribe_all(topic);
  so.engine.run_for(SimTime::seconds(3));
  const auto root = so.overlay.root_of(topic);

  std::uint64_t last = so.scribes[root]->root_epoch_of(topic);
  const auto sends0 = counter(reg, "scribe.root_replications");
  const auto epoch0 = last;
  for (int step = 0; step < 40; ++step) {
    // Churn membership now and then so some rounds carry news.
    if (step % 10 == 5) {
      const std::size_t i = 1 + static_cast<std::size_t>(step) % 15;
      if (i != root) so.scribes[i]->unsubscribe(topic);
    }
    so.engine.run_for(SimTime::millis(250));
    const auto epoch = so.scribes[root]->root_epoch_of(topic);
    EXPECT_GE(epoch, last) << "epoch regressed at step " << step;
    last = epoch;
    for (std::size_t i = 0; i < so.scribes.size(); ++i) {
      if (const auto* rep = so.scribes[i]->replica_of(topic)) {
        EXPECT_LE(rep->epoch, epoch);
      }
    }
  }
  // One epoch per replica send (each send goes to every picked holder),
  // not one per 250ms round: 40 rounds passed.
  const auto holders = counter(reg, "scribe.root_replications") - sends0;
  EXPECT_GT(last, epoch0);
  EXPECT_LT(last - epoch0, 40u);
  EXPECT_EQ(holders, (last - epoch0) * 2);
}

// A replica carries only what failover reads: the root node's own
// reservation is not tree state, so taking and releasing one between
// rounds leaves the replica unchanged and sends nothing before the
// refresh deadline.
TEST(QuietTrees, RootReservationChangeSendsNoReplica) {
  core::ClusterConfig config;
  config.node.scribe = quiet_config();
  config.metrics = true;
  core::RBayCluster cluster{config};
  cluster.add_tree_spec(core::TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(12);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.node(i).post("GPU", true).ok());
  }
  cluster.finalize();
  cluster.run_for(SimTime::seconds(4));
  const auto topic = cluster.node(0).topic_of(cluster.tree_specs()[0]);
  std::size_t root = SIZE_MAX;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.node(i).scribe().is_root_of(topic)) root = i;
  }
  ASSERT_NE(root, SIZE_MAX);
  auto& node = cluster.node(root);
  auto& scribe = node.scribe();

  // Step to just past a replica send, so a whole refresh interval lies ahead.
  const auto epoch0 = scribe.root_epoch_of(topic);
  std::uint64_t epoch = epoch0;
  for (int step = 0; step < 16 && epoch == epoch0; ++step) {
    cluster.run_for(quiet_config().aggregation_interval);
    epoch = scribe.root_epoch_of(topic);
  }
  ASSERT_GT(epoch, epoch0) << "no refresh within two refresh intervals";
  const auto deadline = cluster.engine().now() + scribe.refresh_interval() -
                        quiet_config().aggregation_interval;
  const auto sends = counter(*cluster.metrics(), "scribe.root_replications");

  // A round at the root with the reservation held, then one after it is
  // released; the tree and the root's contribution stay the same.
  const query::QueryId holder{util::U128{0x0123456789abcdefULL, 0}, 1};
  for (const bool held : {true, false}) {
    const auto now = cluster.engine().now();
    if (held) {
      ASSERT_TRUE(node.lock().try_reserve(holder, now, SimTime::seconds(10)));
    } else {
      node.lock().release(holder, now);
    }
    scribe.contribution_changed(topic);
    const auto wake = scribe.next_round();
    ASSERT_TRUE(wake.has_value());
    ASSERT_LT(*wake, deadline) << "the root must run a round before its refresh";
    cluster.run_for(quiet_config().aggregation_interval);
  }
  EXPECT_LT(cluster.engine().now(), deadline);
  EXPECT_EQ(scribe.root_epoch_of(topic), epoch) << "a reservation is not replica news";
  EXPECT_EQ(counter(*cluster.metrics(), "scribe.root_replications"), sends);
  EXPECT_DOUBLE_EQ(scribe.aggregate_value(topic), 12.0);
}

}  // namespace
}  // namespace rbay::scribe
