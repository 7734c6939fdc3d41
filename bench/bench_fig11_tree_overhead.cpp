// Fig. 11 — Overheads of tree construction (onSubscribe) vs delivering
// admin commands to tree members (onDeliver), per geographic region.
//
// Paper claims (§IV.D): tree-construction latencies are flat (~50 ms)
// across all sites — joining is a local operation against the neighbor
// set, insensitive to network conditions.  Command delivery fluctuates:
// ~100 ms for US/EU, 200-500 ms for Asia/SA — it is linear in tree depth
// (O(log N) hops) and pays the admin→site RTT, so distant/unstable regions
// cost more.  We reproduce both series: an admin console in Virginia
// builds the 23 instance-type trees in every region and then pushes a
// command into each tree through that region's gateway ("border router").

#include "bench_common.hpp"
#include "pastry/overlay.hpp"
#include "scribe/scribe.hpp"

using namespace rbay;

namespace {

/// Member that records when multicasts arrive.
class TimingMember final : public scribe::TopicMember {
 public:
  explicit TimingMember(sim::Engine& engine) : engine_(engine) {}

  void on_multicast(const scribe::TopicId&, const std::string&) override {
    arrivals.push_back(engine_.now());
  }
  bool on_anycast(const scribe::TopicId&, scribe::AnycastPayload&) override { return false; }

  std::vector<util::SimTime> arrivals;

 private:
  sim::Engine& engine_;
};

/// Gateway app: the Virginia admin sends it a command; it multicasts into
/// its own site's tree (§III.E border-router role).
struct AdminCmd final : pastry::AppMessage {
  scribe::TopicId topic;
  std::string data;
  [[nodiscard]] std::size_t wire_size() const override { return 16 + data.size(); }
  [[nodiscard]] const char* type_name() const override { return "AdminCmd"; }
};

class GatewayApp final : public pastry::PastryApp {
 public:
  explicit GatewayApp(scribe::Scribe& scribe) : scribe_(scribe) {}
  void deliver(const pastry::NodeId&, pastry::AppMessage&, int) override {}
  void receive(const pastry::NodeRef&, pastry::AppMessage& msg) override {
    if (auto* cmd = dynamic_cast<AdminCmd*>(&msg)) {
      scribe_.multicast(cmd->topic, cmd->data);
    }
  }

 private:
  scribe::Scribe& scribe_;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  bench::print_header("Fig. 11",
                      "tree construction (onSubscribe) vs command delivery (onDeliver)");

  const std::size_t per_site = args.small ? 30 : 100;
  const auto& types = bench::instance_types();

  sim::Engine engine{args.seed};
  pastry::Overlay overlay{engine, net::Topology::ec2_eight_sites()};
  bench::EngineObs obs{engine, args};
  overlay.populate(per_site);
  overlay.build_static();

  std::vector<std::unique_ptr<scribe::Scribe>> scribes;
  std::vector<std::unique_ptr<TimingMember>> members;
  std::vector<std::unique_ptr<GatewayApp>> gateways;
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    scribes.push_back(std::make_unique<scribe::Scribe>(overlay.node(i)));
    members.push_back(std::make_unique<TimingMember>(engine));
  }

  const auto& topo = overlay.network().topology();
  const auto sites = topo.site_count();

  // --- tree construction: every node joins its site's 23 instance trees;
  // join latency = subscribe() → JoinAck, measured per site.
  std::vector<util::Samples> join_latency(sites);
  for (net::SiteId s = 0; s < sites; ++s) {
    for (const auto idx : overlay.nodes_in_site(s)) {
      for (const auto& type : types) {
        const auto topic =
            pastry::tree_id("instance=" + type + "@" + topo.site(s).name, "rbay");
        const auto t0 = engine.now();
        scribes[idx]->subscribe(
            topic, members[idx].get(),
            [&join_latency, s, t0, &engine]() {
              join_latency[s].add((engine.now() - t0).as_millis());
            });
      }
    }
    engine.run();
  }

  // --- command delivery: admin console in Virginia pushes one command
  // into every tree of every region via the region's gateway node.
  std::vector<util::Samples> deliver_latency(sites);
  const auto admin_ep = overlay.network().add_endpoint(0, [](net::Envelope) {});
  (void)admin_ep;
  pastry::AppId admincmd{};
  for (net::SiteId s = 0; s < sites; ++s) {
    const auto gw_idx = overlay.nodes_in_site(s)[0];
    gateways.push_back(std::make_unique<GatewayApp>(*scribes[gw_idx]));
    admincmd = overlay.node(gw_idx).register_app("admincmd", gateways.back().get());
  }
  const auto virginia_admin = overlay.nodes_in_site(0)[1];
  for (net::SiteId s = 0; s < sites; ++s) {
    const auto gw_idx = overlay.nodes_in_site(s)[0];
    for (const auto& type : types) {
      for (auto& m : members) m->arrivals.clear();
      const auto topic = pastry::tree_id("instance=" + type + "@" + topo.site(s).name, "rbay");
      const auto t0 = engine.now();
      auto cmd = std::make_unique<AdminCmd>();
      cmd->topic = topic;
      cmd->data = "deliver|expiration|+3600";
      overlay.node(virginia_admin).send_direct(overlay.ref(gw_idx), std::move(cmd), admincmd);
      engine.run();
      for (const auto& m : members) {
        for (const auto at : m->arrivals) deliver_latency[s].add((at - t0).as_millis());
      }
    }
  }

  std::printf("%-12s %22s %26s\n", "site", "onSubscribe (join) ms", "onDeliver (command) ms");
  std::printf("%-12s %10s %10s %12s %12s\n", "", "mean", "p99", "mean", "max");
  for (net::SiteId s = 0; s < sites; ++s) {
    std::printf("%-12s %10.2f %10.2f %12.1f %12.1f\n", topo.site(s).name.c_str(),
                join_latency[s].mean(), join_latency[s].percentile(99),
                deliver_latency[s].mean(), deliver_latency[s].max());
  }
  std::printf(
      "\nexpected shape: join latency flat and small across ALL sites (intra-site\n"
      "neighbor handshake); delivery latency stratified by admin→site RTT —\n"
      "US/EU cheap, Asia/Sao Paulo several times costlier (paper: 100 vs 200-500 ms).\n");
  obs.dump();
  return 0;
}
