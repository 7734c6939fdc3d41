// Table II — Average round-trip latency between Amazon sites.
//
// Measures ping-pong RTTs over the simulated network between one node per
// EC2 region pair and prints the same triangular matrix as the paper's
// Table II.  With jitter enabled the measured averages sit slightly above
// the configured RTTs (jitter is multiplicative and one-sided), which is
// the expected relationship between a configured mean and measured pings.

#include "bench_common.hpp"
#include "net/network.hpp"

using namespace rbay;

namespace {

struct Ping final : net::Payload {
  bool is_reply = false;
  [[nodiscard]] std::size_t wire_size() const override { return 64; }
  [[nodiscard]] const char* type_name() const override { return "Ping"; }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  bench::print_header("Table II", "average round-trip latency between Amazon sites");

  sim::Engine engine{args.seed};
  net::Network network{engine, net::Topology::ec2_eight_sites()};
  bench::EngineObs obs{engine, args};
  const auto& topo = network.topology();
  const auto sites = topo.site_count();
  const int pings = args.small ? 5 : 50;

  // One endpoint per site; it echoes pings back.
  std::vector<net::EndpointId> eps;
  std::vector<std::vector<util::Samples>> rtt(sites, std::vector<util::Samples>(sites));
  std::vector<util::SimTime> sent_at;

  for (net::SiteId s = 0; s < sites; ++s) {
    eps.push_back(network.add_endpoint(s, [&, s](net::Envelope env) {
      auto* ping = dynamic_cast<Ping*>(env.payload.get());
      if (ping == nullptr) return;
      if (!ping->is_reply) {
        auto reply = std::make_unique<Ping>();
        reply->is_reply = true;
        network.send(env.to, env.from, std::move(reply));
      }
    }));
  }

  for (net::SiteId a = 0; a < sites; ++a) {
    for (net::SiteId b = a; b < sites; ++b) {
      for (int i = 0; i < pings; ++i) {
        // A measuring endpoint that records the echo time.
        const auto t0 = engine.now();
        const auto prober = network.add_endpoint(a, [&, a, b, t0](net::Envelope env) {
          if (auto* ping = dynamic_cast<Ping*>(env.payload.get()); ping && ping->is_reply) {
            rtt[a][b].add((engine.now() - t0).as_millis());
          }
        });
        network.send(prober, eps[b], std::make_unique<Ping>());
        engine.run();
      }
    }
  }

  std::printf("%-11s", "");
  for (net::SiteId b = 0; b < sites; ++b) std::printf("%11s", topo.site(b).name.c_str());
  std::printf("\n");
  for (net::SiteId a = 0; a < sites; ++a) {
    std::printf("%-11s", topo.site(a).name.c_str());
    for (net::SiteId b = 0; b < sites; ++b) {
      if (b < a) {
        std::printf("%11s", "");
      } else {
        std::printf("%9.3fms", rtt[a][b].mean());
      }
    }
    std::printf("\n");
  }
  std::printf("\nconfigured (paper Table II) vs measured: jitter is symmetric, so measured ≈ configured\n");
  std::printf("spot checks: Virginia-Singapore cfg=275.549 meas=%.3f | Ireland-SaoPaulo cfg=325.274 meas=%.3f\n",
              rtt[0][4].mean(), rtt[3][7].mean());
  obs.dump();
  return 0;
}
