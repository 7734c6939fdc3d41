// Tag dispatch of Pastry's own payloads and interned application ids.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "pastry/messages.hpp"
#include "test_helpers.hpp"

namespace rbay::pastry {
namespace {

/// An untagged payload, as tests and benches define them.
struct PlainPayload final : net::Payload {
  [[nodiscard]] std::size_t wire_size() const override { return 1; }
  [[nodiscard]] const char* type_name() const override { return "PlainPayload"; }
};

using PastryPayloads = std::tuple<RouteEnvelope, DirectEnvelope, JoinRequest, JoinReply,
                                  StateAnnounce, PlainPayload>;

template <class Msg, class... Others>
void expect_only_own_tag(std::tuple<Others...>* /*types*/) {
  Msg msg;
  net::Payload& base = msg;
  (
      [&] {
        const bool same = std::is_same_v<Msg, Others>;
        const bool untagged = std::is_same_v<Others, PlainPayload>;
        EXPECT_EQ(util::msg_as<Others>(base) != nullptr, same && !untagged)
            << base.type_name() << " as " << Others{}.type_name();
        if (!std::is_same_v<Msg, Others>) {
          EXPECT_NE(util::msg_tag<Msg>(), util::msg_tag<Others>());
        }
      }(),
      ...);
}

TEST(Dispatch, EachPastryPayloadMatchesOnlyItsOwnTag) {
  []<class... Msgs>(std::tuple<Msgs...>* types) {
    (expect_only_own_tag<Msgs>(types), ...);
  }(static_cast<PastryPayloads*>(nullptr));
}

TEST(Dispatch, ClonesKeepTheirTag) {
  RouteEnvelope route;
  route.app = intern_app("dispatch.clone");
  const auto route_copy = route.clone_payload();
  ASSERT_NE(route_copy, nullptr);
  ASSERT_NE(util::msg_as<RouteEnvelope>(*route_copy), nullptr);
  EXPECT_EQ(util::msg_as<RouteEnvelope>(*route_copy)->app, route.app);
  const auto join_copy = JoinRequest{}.clone_payload();
  EXPECT_NE(util::msg_as<JoinRequest>(*join_copy), nullptr);
  EXPECT_EQ(util::msg_as<JoinReply>(*join_copy), nullptr);
}

TEST(Dispatch, InterningIsStableAndNamesRoundTrip) {
  const AppId a = intern_app("dispatch.alpha");
  const AppId b = intern_app("dispatch.beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(intern_app("dispatch.alpha"), a);
  EXPECT_EQ(app_name(a), "dispatch.alpha");
  EXPECT_EQ(app_name(b), "dispatch.beta");
}

TEST(Dispatch, RegisterAppReturnsTheInternedId) {
  testing::ProbeOverlay t(net::Topology::single_site(), 4);
  EXPECT_EQ(t.overlay.node(0).register_app(testing::ProbeApp::kName, t.apps[0].get()),
            intern_app(testing::ProbeApp::kName));
}

/// Records the order in which apps hear of a failed neighbour.
struct FailureListener final : PastryApp {
  FailureListener(std::string n, std::vector<std::string>* l) : name(std::move(n)), log(l) {}
  std::string name;
  std::vector<std::string>* log;
  void deliver(const NodeId& /*key*/, AppMessage& /*msg*/, int /*hops*/) override {}
  void neighbor_failed(const NodeId& /*id*/) override { log->push_back(name); }
};

TEST(Dispatch, NeighborFailedRunsInAppNameOrder) {
  testing::ProbeOverlay t(net::Topology::single_site(), 4);
  std::vector<std::string> log;
  // Interned (and registered) against name order.
  FailureListener zeta("dispatch.listener.z", &log);
  FailureListener alpha("dispatch.listener.a", &log);
  PastryNode& node = t.overlay.node(0);
  node.register_app(zeta.name, &zeta);
  node.register_app(alpha.name, &alpha);
  ASSERT_FALSE(node.leaf_set().all().empty());
  node.forget(node.leaf_set().all().front().id);
  EXPECT_EQ(log, (std::vector<std::string>{"dispatch.listener.a", "dispatch.listener.z"}));
}

}  // namespace
}  // namespace rbay::pastry
