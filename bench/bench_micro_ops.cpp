// Micro-operation benchmarks (google-benchmark): the primitive costs the
// system-level numbers decompose into — id hashing, ring math, routing
// table lookups, AAL handler calls, SQL parsing.

#include <benchmark/benchmark.h>

#include "aal/script.hpp"
#include "pastry/overlay.hpp"
#include "query/sql.hpp"
#include "util/rng.hpp"
#include "util/sha1.hpp"

using namespace rbay;

namespace {

void BM_Sha1Hash128(benchmark::State& state) {
  const std::string input = "instance=c3.8xlarge@Virginia|rbay";
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Sha1::hash128(input));
  }
}
BENCHMARK(BM_Sha1Hash128);

void BM_U128SharedPrefix(benchmark::State& state) {
  util::Rng rng{1};
  const util::U128 a{rng.next_u64(), rng.next_u64()};
  const util::U128 b{rng.next_u64(), rng.next_u64()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.shared_prefix_digits(b));
  }
}
BENCHMARK(BM_U128SharedPrefix);

void BM_RoutingNextHop(benchmark::State& state) {
  static sim::Engine engine{2};
  static pastry::Overlay* overlay = [] {
    auto* o = new pastry::Overlay{engine, net::Topology::single_site()};
    for (int i = 0; i < 1024; ++i) o->create_node(0);
    o->build_static();
    return o;
  }();
  util::Rng rng{3};
  std::vector<pastry::NodeId> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(util::Sha1::hash128(std::string("k").append(std::to_string(i))));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay->node(i % 1024).next_hop(keys[i % keys.size()],
                                                              pastry::Scope::Global));
    ++i;
  }
}
BENCHMARK(BM_RoutingNextHop);

void BM_AalPasswordHandler(benchmark::State& state) {
  auto script = aal::Script::load(R"(
AA = {NodeId = 27, Password = "3053482032"}
function onGet(caller, pw)
  if pw == AA.Password then return AA.NodeId end
  return nil
end)");
  auto& s = *script.value();
  const std::vector<aal::Value> args = {aal::Value::string("joe"),
                                        aal::Value::string("3053482032")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.call("onGet", args));
  }
}
BENCHMARK(BM_AalPasswordHandler);

void BM_AalScriptLoad(benchmark::State& state) {
  const std::string source = R"(
AA = {NodeId = 27, Password = "3053482032"}
function onGet(caller, pw)
  if pw == AA.Password then return AA.NodeId end
  return nil
end)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(aal::Script::load(source));
  }
}
BENCHMARK(BM_AalScriptLoad);

void BM_SqlParse(benchmark::State& state) {
  const std::string sql =
      "SELECT 5 FROM Virginia, Tokyo WHERE CPU_model = \"Intel Core i7\" "
      "AND CPU_utilization < 10% GROUPBY CPU_utilization DESC;";
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::parse_query(sql));
  }
}
BENCHMARK(BM_SqlParse);

void BM_PredicateMatch(benchmark::State& state) {
  const query::Predicate pred{"CPU_utilization", query::CompareOp::Less,
                              store::AttributeValue{0.1}};
  const store::AttributeValue value{0.07};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.matches(value));
  }
}
BENCHMARK(BM_PredicateMatch);

}  // namespace

BENCHMARK_MAIN();
