#include "baseline/ganglia.hpp"

#include "util/contract.hpp"
#include "util/msg_tag.hpp"

namespace rbay::baseline {

namespace {

struct MemberPoll final : net::TaggedPayload<MemberPoll> {
  std::uint64_t cycle = 0;
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
  [[nodiscard]] const char* type_name() const override { return "ganglia.MemberPoll"; }
};

struct MemberSnapshot final : net::TaggedPayload<MemberSnapshot> {
  std::uint64_t cycle = 0;
  std::size_t member_index = 0;
  std::vector<std::string> attributes;
  std::size_t bytes = 0;
  [[nodiscard]] std::size_t wire_size() const override { return 24 + bytes; }
  [[nodiscard]] const char* type_name() const override { return "ganglia.MemberSnapshot"; }
};

/// The full cluster state flows to the central manager ("all individual
/// data are returned ... even though only their aggregates are of
/// interest"), which is exactly the bottleneck RBAY removes.
struct ClusterSnapshot final : net::TaggedPayload<ClusterSnapshot> {
  std::uint64_t cycle = 0;
  net::SiteId site = 0;
  std::map<std::string, int> counts;
  std::size_t bytes = 0;
  [[nodiscard]] std::size_t wire_size() const override { return 24 + bytes; }
  [[nodiscard]] const char* type_name() const override { return "ganglia.ClusterSnapshot"; }
};

struct QueryReq final : net::TaggedPayload<QueryReq> {
  std::uint64_t id = 0;
  std::string attribute;
  net::EndpointId reply_to = net::kInvalidEndpoint;
  [[nodiscard]] std::size_t wire_size() const override { return 24 + attribute.size(); }
  [[nodiscard]] const char* type_name() const override { return "ganglia.QueryReq"; }
};

struct QueryReply final : net::TaggedPayload<QueryReply> {
  std::uint64_t id = 0;
  int matches = 0;
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
  [[nodiscard]] const char* type_name() const override { return "ganglia.QueryReply"; }
};

constexpr std::size_t kBytesPerAttribute = 32;
/// Attributes per member node (snapshot size driver).
constexpr std::size_t kAttributesPerNode = 10;
/// Polling period (master→members and central→masters).
constexpr util::SimTime kPollInterval = util::SimTime::seconds(1);

}  // namespace

GangliaFederation::GangliaFederation(sim::Engine& engine, net::Topology topology,
                                     std::size_t members_per_site)
    : engine_(engine), network_(engine, std::move(topology)) {
  const auto sites = network_.topology().site_count();
  clusters_.resize(sites);
  central_view_.resize(sites);

  // Central manager lives in site 0 (the "web front end" machine).
  central_ = network_.add_endpoint(0, [this](net::Envelope env) { on_central(std::move(env)); });

  for (net::SiteId s = 0; s < sites; ++s) {
    auto& cluster = clusters_[s];
    cluster.master = network_.add_endpoint(
        s, [this, s](net::Envelope env) { on_master(s, std::move(env)); });
    for (std::size_t m = 0; m < members_per_site; ++m) {
      Member member;
      member.endpoint = network_.add_endpoint(
          s, [this, s, m](net::Envelope env) { on_member(s, m, std::move(env)); });
      for (std::size_t a = 0; a < kAttributesPerNode; ++a) {
        member.attributes["attr-" + std::to_string(a)] = store::AttributeValue{true};
      }
      cluster.members.push_back(std::move(member));
    }
  }
}

void GangliaFederation::start() {
  stop();
  poll_timer_ = engine_.schedule_periodic(kPollInterval, [this]() { poll_cycle(); });
}

void GangliaFederation::stop() { poll_timer_.cancel(); }

void GangliaFederation::poll_cycle() {
  ++cycles_;
  for (auto& cluster : clusters_) {
    cluster.snapshot.clear();
    cluster.snapshot_bytes = 0;
    for (const auto& member : cluster.members) {
      auto poll = std::make_unique<MemberPoll>();
      poll->cycle = cycles_;
      network_.send(cluster.master, member.endpoint, std::move(poll));
    }
  }
}

void GangliaFederation::on_member(net::SiteId site, std::size_t index, net::Envelope env) {
  const auto* poll = util::msg_as<MemberPoll>(*env.payload);
  if (poll == nullptr) return;
  auto& member = clusters_[site].members[index];
  auto snapshot = std::make_unique<MemberSnapshot>();
  snapshot->cycle = poll->cycle;
  snapshot->member_index = index;
  snapshot->bytes = member.attributes.size() * kBytesPerAttribute;
  for (const auto& [name, value] : member.attributes) snapshot->attributes.push_back(name);
  network_.send(member.endpoint, clusters_[site].master, std::move(snapshot));
}

void GangliaFederation::on_master(net::SiteId site, net::Envelope env) {
  auto* snapshot = util::msg_as<MemberSnapshot>(*env.payload);
  if (snapshot == nullptr) return;
  auto& cluster = clusters_[site];
  for (const auto& attr : snapshot->attributes) cluster.snapshot[attr] += 1;
  cluster.snapshot_bytes += snapshot->bytes;

  // Once every member of this cycle reported, forward the whole cluster
  // state to the central manager.
  static_assert(kBytesPerAttribute > 0);
  const std::size_t expected =
      cluster.members.size() * kAttributesPerNode * kBytesPerAttribute;
  if (cluster.snapshot_bytes >= expected) {
    auto up = std::make_unique<ClusterSnapshot>();
    up->cycle = snapshot->cycle;
    up->site = site;
    up->counts = cluster.snapshot;
    up->bytes = cluster.snapshot_bytes;
    network_.send(cluster.master, central_, std::move(up));
  }
}

void GangliaFederation::on_central(net::Envelope env) {
  if (auto* snapshot = util::msg_as<ClusterSnapshot>(*env.payload)) {
    central_view_[snapshot->site] = snapshot->counts;
    return;
  }
  if (auto* query = util::msg_as<QueryReq>(*env.payload)) {
    int matches = 0;
    for (const auto& site_view : central_view_) {
      auto it = site_view.find(query->attribute);
      if (it != site_view.end()) matches += it->second;
    }
    auto reply = std::make_unique<QueryReply>();
    reply->id = query->id;
    reply->matches = matches;
    network_.send(central_, query->reply_to, std::move(reply));
    return;
  }
}

void GangliaFederation::query(net::SiteId site, const std::string& attribute,
                              std::function<void(int)> callback) {
  const auto id = next_query_++;
  query_waiters_[id] = std::move(callback);
  // A transient client endpoint per query keeps the model simple.
  const auto client = network_.add_endpoint(site, [this](net::Envelope env) {
    if (auto* reply = util::msg_as<QueryReply>(*env.payload)) {
      auto it = query_waiters_.find(reply->id);
      if (it != query_waiters_.end()) {
        auto cb = std::move(it->second);
        query_waiters_.erase(it);
        cb(reply->matches);
      }
    }
  });
  auto req = std::make_unique<QueryReq>();
  req->id = id;
  req->attribute = attribute;
  req->reply_to = client;
  network_.send(client, central_, std::move(req));
}

void GangliaFederation::set_member_attribute(net::SiteId site, std::size_t member,
                                             const std::string& attribute,
                                             store::AttributeValue value) {
  RBAY_REQUIRE(site < clusters_.size(), "unknown site");
  RBAY_REQUIRE(member < clusters_[site].members.size(), "unknown member");
  clusters_[site].members[member].attributes[attribute] = std::move(value);
}

std::uint64_t GangliaFederation::central_bytes_received() const {
  return network_.endpoint_stats(central_).bytes_received;
}

std::uint64_t GangliaFederation::central_messages_received() const {
  return network_.endpoint_stats(central_).received;
}

}  // namespace rbay::baseline
