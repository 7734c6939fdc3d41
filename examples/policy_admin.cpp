// Policy administration tour: everything a site admin can do with Active
// Attributes at runtime, without touching RBAY itself.
//
//   * attach handlers to posted resources,
//   * push onDeliver commands down a tree (repricing, lease extension),
//   * hide / expose resources fleet-wide with one multicast,
//   * watch the sandbox terminate a runaway handler,
//   * inspect per-attribute memory cost (the Fig. 8c metric).

#include <cstdio>

#include "core/cluster.hpp"

using namespace rbay;

int main() {
  core::ClusterConfig config;
  config.topology = net::Topology::single_site();
  config.seed = 99;
  config.node.scribe.aggregation_interval = util::SimTime::millis(100);
  core::RBayCluster cluster{config};

  cluster.add_tree_spec(core::TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));
  cluster.populate(16);

  // A pricing attribute whose onDeliver applies admin commands of the form
  // "+N" (raise), "-N" (discount), or an absolute number.
  const std::string pricing = R"(
function onDeliver(caller, payload)
  local head = string.sub(payload, 1, 1)
  local amount = tonumber(string.sub(payload, 2))
  if head == "+" and amount then return value + amount end
  if head == "-" and amount then return value - amount end
  return tonumber(payload)
end
)";

  for (std::size_t i = 0; i < cluster.size(); ++i) {
    (void)cluster.node(i).post("GPU", true);
    (void)cluster.node(i).post("price_per_hour", 10, pricing);
  }
  cluster.finalize();
  cluster.run_for(util::SimTime::seconds(1));
  const auto& gpu_tree = cluster.tree_specs()[0];

  auto print_prices = [&](const char* label) {
    double lo = 1e9, hi = -1e9;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      double v = 0;
      if (!cluster.node(i).attributes().find("price_per_hour")->value().numeric(v)) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    std::printf("%-38s price range [%.1f, %.1f]\n", label, lo, hi);
  };

  print_prices("initial");
  cluster.node(0).admin_deliver(gpu_tree, "price_per_hour", "+5");
  cluster.run();
  print_prices("after multicast '+5'");
  cluster.node(0).admin_deliver(gpu_tree, "price_per_hour", "12");
  cluster.run();
  print_prices("after multicast '12' (absolute)");

  // Fleet-wide hide, then expose.
  double size = -1;
  auto probe = [&]() {
    cluster.node(1).scribe().probe_size(cluster.node(1).topic_of(gpu_tree),
                                        [&](const scribe::Scribe::SizeInfo* i) { if (i != nullptr) size = i->value; });
    cluster.run_for(util::SimTime::seconds(2));  // re-aggregate
    cluster.node(1).scribe().probe_size(cluster.node(1).topic_of(gpu_tree),
                                        [&](const scribe::Scribe::SizeInfo* i) { if (i != nullptr) size = i->value; });
    cluster.run();
    return size;
  };
  std::printf("GPU tree size before hide: %.0f\n", probe());
  cluster.node(0).admin_set_hidden(gpu_tree, "GPU", true);
  cluster.run();
  cluster.resubscribe_all();
  std::printf("GPU tree size after 'hide' multicast: %.0f\n", probe());
  cluster.node(0).set_hidden("GPU", false);  // local expose on the gateway only
  cluster.run();
  std::printf("GPU tree size after one node re-exposes: %.0f\n", probe());

  // Sandbox in action: a runaway handler is terminated, not looping forever.
  auto& victim = cluster.node(2);
  (void)victim.post("lease", 1, "function onTimer() while true do end end");
  auto timer_result = victim.attributes().find("lease")->on_timer();
  std::printf("runaway onTimer handler: %s\n",
              timer_result.ok() ? "ran (unexpected!)" : timer_result.error().c_str());

  // Memory accounting, RBAY vs plain entry (what Fig. 8c plots).
  store::ActiveAttribute plain{"GPU", true};
  store::ActiveAttribute active{"GPU", true};
  (void)active.attach_handlers(R"(
AA = {Password = "3053482032"}
function onGet(caller, pw)
  if pw == AA.Password then return true end
  return nil
end)");
  std::printf("attribute footprint: plain=%zu bytes, with AA handler=%zu bytes\n",
              plain.memory_footprint(), active.memory_footprint());
  return 0;
}
