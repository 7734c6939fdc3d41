#include <gtest/gtest.h>

#include "core/cluster.hpp"

namespace rbay::core {
namespace {

struct QueryFixture {
  RBayCluster cluster;

  explicit QueryFixture(std::size_t sites, std::size_t per_site, std::uint64_t seed = 42)
      : cluster(make_config(sites, seed)) {
    cluster.add_tree_spec(TreeSpec::from_predicate(
        {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
    cluster.add_tree_spec(TreeSpec::from_predicate(
        {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}}));
    cluster.populate(per_site);
  }

  static ClusterConfig make_config(std::size_t sites, std::uint64_t seed) {
    ClusterConfig config;
    config.topology = sites == 1 ? net::Topology::single_site()
                                 : net::Topology::ec2_eight_sites();
    config.seed = seed;
    config.node.scribe.aggregation_interval = util::SimTime::millis(100);
    config.node.query.max_attempts = 8;
    return config;
  }

  void provision(double gpu_fraction, double idle_fraction) {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      auto& rng = cluster.engine().rng();
      ASSERT_TRUE(cluster.node(i).post("GPU", rng.chance(gpu_fraction)).ok());
      ASSERT_TRUE(cluster.node(i)
                      .post("CPU_utilization", rng.chance(idle_fraction) ? 0.05 : 0.8)
                      .ok());
    }
    cluster.finalize();
    cluster.run_for(util::SimTime::seconds(2));  // aggregation warm-up
  }

  QueryOutcome run_query(std::size_t from, const std::string& sql) {
    QueryOutcome out;
    bool done = false;
    cluster.node(from).query().execute_sql(sql, [&](const QueryOutcome& o) {
      out = o;
      done = true;
    });
    cluster.run();
    EXPECT_TRUE(done) << "query never completed";
    return out;
  }
};

TEST(QueryEndToEnd, SingleSiteSimplePredicate) {
  QueryFixture f{1, 20};
  f.provision(1.0, 1.0);  // everyone matches
  const auto out = f.run_query(0, "SELECT 3 FROM * WHERE GPU = true");
  ASSERT_TRUE(out.satisfied) << out.error;
  EXPECT_EQ(out.nodes.size(), 3u);
  EXPECT_EQ(out.attempts, 1);
}

TEST(QueryEndToEnd, CompositePredicateChecksBoth) {
  QueryFixture f{1, 30};
  f.provision(1.0, 1.0);
  // Make exactly 4 nodes idle; the rest busy.
  for (std::size_t i = 4; i < 30; ++i) {
    f.cluster.node(i).attributes().update_value("CPU_utilization", 0.9);
    f.cluster.node(i).reevaluate_subscriptions();
  }
  f.cluster.run_for(util::SimTime::seconds(2));
  const auto out =
      f.run_query(0, "SELECT 4 FROM * WHERE GPU = true AND CPU_utilization < 10%");
  ASSERT_TRUE(out.satisfied) << out.error;
  EXPECT_EQ(out.nodes.size(), 4u);
  // All returned nodes genuinely satisfy both predicates.
  for (const auto& c : out.nodes) {
    const auto idx = f.cluster.index_of(c.node.id);
    EXPECT_TRUE(f.cluster.node(idx).attributes().find("GPU")->value().as_bool());
    EXPECT_LT(f.cluster.node(idx).attributes().find("CPU_utilization")->value().as_double(),
              0.1);
  }
}

TEST(QueryEndToEnd, UnsatisfiableQueryFailsAfterRetries) {
  QueryFixture f{1, 10};
  f.provision(1.0, 0.0);  // ten GPU nodes
  // The GPU tree is not empty, but the walk can fill only 10 of the 20
  // slots and comes home short, which the backoff retries.  (A query a
  // probed tree's root answers as empty ends at once: core/retry_test.cpp.)
  const auto out = f.run_query(0, "SELECT 20 FROM * WHERE GPU = true");
  EXPECT_FALSE(out.satisfied);
  EXPECT_TRUE(out.nodes.empty());
  EXPECT_GT(out.attempts, 1);  // backoff retries happened
}

TEST(QueryEndToEnd, BadSqlReportsError) {
  QueryFixture f{1, 4};
  f.provision(1.0, 1.0);
  const auto out = f.run_query(0, "SELEKT 1 FROM *");
  EXPECT_FALSE(out.satisfied);
  EXPECT_FALSE(out.error.empty());
}

TEST(QueryEndToEnd, UnknownSiteReportsError) {
  QueryFixture f{1, 4};
  f.provision(1.0, 1.0);
  const auto out = f.run_query(0, "SELECT 1 FROM Atlantis WHERE GPU = true");
  EXPECT_FALSE(out.satisfied);
  EXPECT_NE(out.error.find("Atlantis"), std::string::npos);
}

TEST(QueryEndToEnd, GroupByOrdersCandidates) {
  QueryFixture f{1, 16};
  f.provision(1.0, 1.0);
  // Distinct utilizations (all < 0.1 so everyone stays in the idle tree).
  for (std::size_t i = 0; i < 16; ++i) {
    f.cluster.node(i).attributes().update_value("CPU_utilization",
                                                0.001 * static_cast<double>(i + 1));
  }
  f.cluster.resubscribe_all();
  f.cluster.run_for(util::SimTime::seconds(2));
  const auto out = f.run_query(
      0, "SELECT 5 FROM * WHERE CPU_utilization < 10% GROUPBY CPU_utilization DESC");
  ASSERT_TRUE(out.satisfied) << out.error;
  ASSERT_EQ(out.nodes.size(), 5u);
  for (std::size_t i = 1; i < out.nodes.size(); ++i) {
    EXPECT_GE(out.nodes[i - 1].sort_value, out.nodes[i].sort_value);
  }
}

TEST(QueryEndToEnd, GroupByRanksNonNumericCandidatesLast) {
  // Half the members carry a numeric Memory value, a quarter a string, a
  // quarter none at all.  Neither of the latter has a value to rank by, so
  // every numeric candidate gathered must come first, ascending or not.
  QueryFixture f{1, 16};
  f.provision(1.0, 1.0);
  for (std::size_t i = 0; i < 16; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(f.cluster.node(i).post("Memory", 8.0 * static_cast<double>(i + 1)).ok());
    } else if (i % 4 == 1) {
      ASSERT_TRUE(f.cluster.node(i).post("Memory", std::string{"plenty"}).ok());
    }
  }
  for (const bool desc : {false, true}) {
    const auto out = f.run_query(0, std::string{"SELECT 2 FROM * WHERE GPU = true GROUPBY Memory"} +
                                        (desc ? " DESC" : " ASC"));
    ASSERT_TRUE(out.satisfied) << out.error;
    ASSERT_EQ(out.nodes.size(), 2u);
    for (const auto& c : out.nodes) {
      const auto idx = f.cluster.index_of(c.node.id);
      EXPECT_EQ(idx % 2, 0u) << "node " << idx << " has no numeric Memory"
                             << (desc ? " (DESC)" : " (ASC)");
    }
    f.cluster.run_for(util::SimTime::seconds(2));  // let the reservations lapse
  }
}

TEST(QueryEndToEnd, GroupByOverCollectsAndReleasesTheSurplus) {
  // A ranked query needs candidates to choose among: each site's anycast
  // fills 3k slots, the interface keeps the best k, and the surplus is
  // released when the query commits.
  auto config = QueryFixture::make_config(1, 42);
  config.metrics = true;
  RBayCluster cluster{config};
  cluster.add_tree_spec(TreeSpec::from_predicate(
      {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}}));
  cluster.populate(16);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(
        cluster.node(i).post("CPU_utilization", 0.001 * static_cast<double>(i + 1)).ok());
  }
  cluster.finalize();
  cluster.run_for(util::SimTime::seconds(2));

  QueryOutcome out;
  bool done = false;
  cluster.node(0).query().execute_sql(
      "SELECT 5 FROM * WHERE CPU_utilization < 10% GROUPBY CPU_utilization DESC",
      [&](const QueryOutcome& o) {
        out = o;
        done = true;
      });
  cluster.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(out.satisfied) << out.error;
  ASSERT_EQ(out.nodes.size(), 5u);
  EXPECT_EQ(cluster.metrics()->fed().counter<"query.slots_filled">().value(), 15u);
  std::size_t holders = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.node(i).lock().holder() == out.query_id) ++holders;
  }
  EXPECT_EQ(holders, 5u);
}

TEST(QueryEndToEnd, PasswordPolicyEnforcedDuringAnycast) {
  QueryFixture f{1, 12};
  const std::string password_handler = R"(
AA = {Password = "3053482032"}
function onGet(caller, payload)
  if payload == AA.Password then return true end
  return nil
end)";
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(f.cluster.node(i).post("GPU", true, password_handler).ok());
    ASSERT_TRUE(f.cluster.node(i).post("CPU_utilization", 0.05).ok());
  }
  f.cluster.finalize();
  f.cluster.run_for(util::SimTime::seconds(2));

  const auto denied = f.run_query(0, "SELECT 2 FROM * WHERE GPU = true WITH \"wrong\"");
  EXPECT_FALSE(denied.satisfied);

  const auto granted =
      f.run_query(0, "SELECT 2 FROM * WHERE GPU = true WITH \"3053482032\"");
  ASSERT_TRUE(granted.satisfied) << granted.error;
  EXPECT_EQ(granted.nodes.size(), 2u);
}

TEST(QueryEndToEnd, ReservationsBlockSecondQueryUntilRelease) {
  QueryFixture f{1, 6};
  f.provision(1.0, 1.0);
  // First query grabs ALL six GPU nodes.
  const auto first = f.run_query(0, "SELECT 6 FROM * WHERE GPU = true");
  ASSERT_TRUE(first.satisfied) << first.error;

  // Second query cannot find an unreserved node while holds are active.
  QueryOutcome second;
  bool done = false;
  f.cluster.node(1).query().execute_sql("SELECT 1 FROM * WHERE GPU = true",
                                        [&](const QueryOutcome& o) {
                                          second = o;
                                          done = true;
                                        });
  // Run only briefly — within the reservation hold window the retry
  // attempts all fail...
  f.cluster.run_for(util::SimTime::millis(200));
  // ...but once the holds expire (500 ms default), a retry succeeds.
  f.cluster.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(second.satisfied);
  EXPECT_GT(second.attempts, 1);
}

TEST(QueryEndToEnd, CommitMakesNodesUnavailable) {
  QueryFixture f{1, 5};
  f.provision(1.0, 1.0);
  const auto out = f.run_query(0, "SELECT 5 FROM * WHERE GPU = true");
  ASSERT_TRUE(out.satisfied) << out.error;
  f.cluster.node(0).query().commit(out);
  f.cluster.run();
  // All five are committed: a later query must exhaust retries and fail.
  const auto later = f.run_query(1, "SELECT 1 FROM * WHERE GPU = true");
  EXPECT_FALSE(later.satisfied);
}

TEST(QueryEndToEnd, ReleaseMakesNodesAvailableAgain) {
  QueryFixture f{1, 5};
  f.provision(1.0, 1.0);
  const auto out = f.run_query(0, "SELECT 5 FROM * WHERE GPU = true");
  ASSERT_TRUE(out.satisfied) << out.error;
  f.cluster.node(0).query().release(out);
  f.cluster.run();
  const auto later = f.run_query(1, "SELECT 5 FROM * WHERE GPU = true");
  EXPECT_TRUE(later.satisfied);
  EXPECT_EQ(later.attempts, 1);
}

TEST(QueryEndToEnd, CrossSiteQueryGathersFromAllSites) {
  QueryFixture f{8, 6};
  f.provision(1.0, 1.0);  // 48 nodes, all matching
  const auto out = f.run_query(0, "SELECT 16 FROM * WHERE GPU = true");
  ASSERT_TRUE(out.satisfied) << out.error;
  EXPECT_EQ(out.nodes.size(), 16u);
  EXPECT_EQ(out.sites_queried, 8);
  // Gateways request k per site, so candidates can span multiple sites.
  std::set<net::SiteId> sites;
  for (const auto& c : out.nodes) sites.insert(c.node.site);
  EXPECT_GE(sites.size(), 2u);
}

TEST(QueryEndToEnd, SiteRestrictedQueryStaysInSites) {
  QueryFixture f{8, 6};
  f.provision(1.0, 1.0);
  const auto out = f.run_query(0, "SELECT 4 FROM Tokyo, Sydney WHERE GPU = true");
  ASSERT_TRUE(out.satisfied) << out.error;
  EXPECT_EQ(out.sites_queried, 2);
  const auto tokyo = f.cluster.directory().site_by_name("Tokyo");
  const auto sydney = f.cluster.directory().site_by_name("Sydney");
  for (const auto& c : out.nodes) {
    EXPECT_TRUE(c.node.site == *tokyo || c.node.site == *sydney);
  }
}

TEST(QueryEndToEnd, MinorAttributeResolvesThroughTaxonomy) {
  ClusterConfig config = QueryFixture::make_config(1, 7);
  RBayCluster cluster{config};
  cluster.add_tree_spec(TreeSpec::existence("CPU"));
  Taxonomy tax;
  tax.add_major("CPU");
  tax.link("CPU_brand", "CPU");
  tax.link("CPU_model", "CPU_brand");
  cluster.set_taxonomy(std::move(tax));
  cluster.populate(12);
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster.node(i).post("CPU", "Intel(R) Core(TM)").ok());
    ASSERT_TRUE(cluster.node(i)
                    .post("CPU_model", i < 4 ? "Intel Core i7" : "Intel Core i5")
                    .ok());
  }
  cluster.finalize();
  cluster.run_for(util::SimTime::seconds(2));

  // No tree exists for CPU_model=...; the taxonomy routes the query to the
  // has:CPU existence tree, and members filter on the minor attribute.
  QueryOutcome out;
  bool done = false;
  cluster.node(0).query().execute_sql(
      "SELECT 4 FROM * WHERE CPU_model = 'Intel Core i7'", [&](const QueryOutcome& o) {
        out = o;
        done = true;
      });
  cluster.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(out.satisfied) << out.error;
  EXPECT_EQ(out.nodes.size(), 4u);
  for (const auto& c : out.nodes) {
    const auto idx = cluster.index_of(c.node.id);
    EXPECT_EQ(cluster.node(idx).attributes().find("CPU_model")->value().as_string(),
              "Intel Core i7");
  }
}

TEST(QueryEndToEnd, LeasedCommitExpiresAndRenews) {
  QueryFixture f{1, 4};
  f.provision(1.0, 1.0);
  auto mine = f.run_query(0, "SELECT 4 FROM * WHERE GPU = true");
  ASSERT_TRUE(mine.satisfied) << mine.error;
  f.cluster.node(0).query().commit(mine, util::SimTime::seconds(10));
  f.cluster.run();

  // Within the lease the fleet is taken.
  EXPECT_FALSE(f.run_query(1, "SELECT 1 FROM * WHERE GPU = true").satisfied);

  // Renew, skip past the original expiry: still taken.
  f.cluster.node(0).query().renew(mine, util::SimTime::seconds(30));
  f.cluster.run();
  f.cluster.run_for(util::SimTime::seconds(15));
  EXPECT_FALSE(f.run_query(1, "SELECT 1 FROM * WHERE GPU = true").satisfied);

  // Let the renewed lease lapse: nodes return to the pool.
  f.cluster.run_for(util::SimTime::seconds(40));
  EXPECT_TRUE(f.run_query(1, "SELECT 4 FROM * WHERE GPU = true").satisfied);
}

TEST(QueryEndToEnd, CountQueryReadsTreeAggregates) {
  QueryFixture f{1, 24};
  f.provision(1.0, 1.0);
  // Make exactly 9 nodes idle.
  for (std::size_t i = 9; i < 24; ++i) {
    f.cluster.node(i).attributes().update_value("CPU_utilization", 0.8);
    f.cluster.node(i).reevaluate_subscriptions();
  }
  f.cluster.run_for(util::SimTime::seconds(3));  // aggregates settle
  const auto out = f.run_query(0, "SELECT COUNT FROM * WHERE CPU_utilization < 10%");
  ASSERT_TRUE(out.satisfied) << out.error;
  EXPECT_DOUBLE_EQ(out.count, 9.0);
  EXPECT_TRUE(out.nodes.empty());
  EXPECT_EQ(out.attempts, 1);  // aggregate answers never retry
}

TEST(QueryEndToEnd, CountQueryAcrossSitesSums) {
  QueryFixture f{8, 5};
  f.provision(1.0, 1.0);  // everyone has a GPU
  const auto out = f.run_query(0, "SELECT COUNT FROM * WHERE GPU = true");
  ASSERT_TRUE(out.satisfied) << out.error;
  EXPECT_DOUBLE_EQ(out.count, 40.0);
  EXPECT_EQ(out.sites_queried, 8);
}

TEST(QueryEndToEnd, CountOfEmptyTreeIsZero) {
  QueryFixture f{1, 6};
  f.provision(0.0, 1.0);  // nobody has a GPU
  const auto out = f.run_query(0, "SELECT COUNT FROM * WHERE GPU = true");
  ASSERT_TRUE(out.satisfied) << out.error;
  EXPECT_DOUBLE_EQ(out.count, 0.0);
}

TEST(QueryEndToEnd, CountDoesNotReserveAnything) {
  QueryFixture f{1, 6};
  f.provision(1.0, 1.0);
  const auto count = f.run_query(0, "SELECT COUNT FROM * WHERE GPU = true");
  ASSERT_TRUE(count.satisfied);
  // All six nodes remain immediately available to a full-fleet query.
  const auto grab = f.run_query(1, "SELECT 6 FROM * WHERE GPU = true");
  EXPECT_TRUE(grab.satisfied);
  EXPECT_EQ(grab.attempts, 1);
}

TEST(QueryEndToEnd, ConcurrentQueriesConflictAndBackOff) {
  QueryFixture f{1, 8};
  f.provision(1.0, 1.0);
  // Two customers each want 5 of the 8 GPU nodes at the same time: at most
  // one can win the first round; the loser backs off and retries after the
  // winner's holds expire.
  std::vector<QueryOutcome> outs;
  for (std::size_t q = 0; q < 2; ++q) {
    f.cluster.node(q).query().execute_sql("SELECT 5 FROM * WHERE GPU = true",
                                          [&outs](const QueryOutcome& o) {
                                            outs.push_back(o);
                                          });
  }
  f.cluster.run();
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_TRUE(outs[0].satisfied);
  EXPECT_TRUE(outs[1].satisfied);
  // At least one of them needed more than one attempt.
  EXPECT_GT(outs[0].attempts + outs[1].attempts, 2);
}

}  // namespace
}  // namespace rbay::core
