#pragma once

// Wire-level Pastry messages.
//
// Applications (Scribe, the RBAY query plane) talk in AppMessage subclasses;
// Pastry wraps them in RouteEnvelope for key-based routing or DirectEnvelope
// for point-to-point sends between nodes that already know each other (tree
// parent/child links).  Join uses its own envelope pair.  Envelopes name
// their application by interned AppId; the wire size still counts the
// name's bytes.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "pastry/node_table.hpp"

namespace rbay::pastry {

/// Routing scope: Global crosses site boundaries, Site implements RBAY's
/// administrative isolation (§III.E) — the message converges within the
/// sender's site.
enum class Scope { Global, Site };

/// Dense id of a Pastry application name, interned once per process; the
/// same name maps to the same id on every node.
enum class AppId : std::uint32_t {};

/// Interns `name` (thread-safe; a known name costs a short scan, no lock).
[[nodiscard]] AppId intern_app(std::string_view name);
/// The name `id` was interned from.
[[nodiscard]] const std::string& app_name(AppId id);

/// Base class for application-level messages carried over Pastry.
/// Protocol messages derive through TaggedMessage so receivers dispatch
/// with util::msg_as.
struct AppMessage {
  AppMessage() = default;
  virtual ~AppMessage() = default;
  [[nodiscard]] util::MsgTag tag() const { return tag_; }
  [[nodiscard]] virtual std::size_t wire_size() const = 0;
  [[nodiscard]] virtual const char* type_name() const = 0;
  /// Deep copy so the link conditioner can duplicate routed/direct
  /// envelopes.  nullptr (the default) makes the envelope non-clonable —
  /// such messages are delivered once even under a duplicate storm.
  [[nodiscard]] virtual std::unique_ptr<AppMessage> clone_msg() const { return nullptr; }

 protected:
  explicit AppMessage(util::MsgTag tag) : tag_(tag) {}

 private:
  util::MsgTag tag_ = nullptr;
};

template <class T>
using TaggedMessage = util::Tagged<T, AppMessage>;

struct RouteEnvelope final : net::TaggedPayload<RouteEnvelope> {
  NodeId key;
  Scope scope = Scope::Global;
  int hops = 0;
  AppId app{};
  std::unique_ptr<AppMessage> msg;

  [[nodiscard]] std::size_t wire_size() const override {
    return 16 /*key*/ + 8 /*header*/ + app_name(app).size() + (msg ? msg->wire_size() : 0);
  }
  [[nodiscard]] const char* type_name() const override { return "RouteEnvelope"; }
  [[nodiscard]] std::unique_ptr<net::Payload> clone_payload() const override {
    auto inner = msg ? msg->clone_msg() : nullptr;
    if (msg && !inner) return nullptr;  // non-clonable app message
    auto copy = std::make_unique<RouteEnvelope>();
    copy->key = key;
    copy->scope = scope;
    copy->hops = hops;
    copy->app = app;
    copy->msg = std::move(inner);
    return copy;
  }
};

struct DirectEnvelope final : net::TaggedPayload<DirectEnvelope> {
  NodeRef sender;
  AppId app{};
  std::unique_ptr<AppMessage> msg;

  [[nodiscard]] std::size_t wire_size() const override {
    return 24 /*sender*/ + app_name(app).size() + (msg ? msg->wire_size() : 0);
  }
  [[nodiscard]] const char* type_name() const override { return "DirectEnvelope"; }
  [[nodiscard]] std::unique_ptr<net::Payload> clone_payload() const override {
    auto inner = msg ? msg->clone_msg() : nullptr;
    if (msg && !inner) return nullptr;  // non-clonable app message
    auto copy = std::make_unique<DirectEnvelope>();
    copy->sender = sender;
    copy->app = app;
    copy->msg = std::move(inner);
    return copy;
  }
};

/// Routed toward the joiner's NodeId; every hop appends routing state.
struct JoinRequest final : net::TaggedPayload<JoinRequest> {
  NodeRef joiner;
  int hops = 0;
  std::vector<NodeRef> collected;

  [[nodiscard]] std::size_t wire_size() const override { return 28 + collected.size() * 24; }
  [[nodiscard]] const char* type_name() const override { return "JoinRequest"; }
  [[nodiscard]] std::unique_ptr<net::Payload> clone_payload() const override {
    return std::make_unique<JoinRequest>(*this);
  }
};

/// Sent by the joiner's root back to the joiner with accumulated state.
struct JoinReply final : net::TaggedPayload<JoinReply> {
  std::vector<NodeRef> state;

  [[nodiscard]] std::size_t wire_size() const override { return 8 + state.size() * 24; }
  [[nodiscard]] const char* type_name() const override { return "JoinReply"; }
  [[nodiscard]] std::unique_ptr<net::Payload> clone_payload() const override {
    return std::make_unique<JoinReply>(*this);
  }
};

/// Joiner announces itself to the nodes it learned about, so they can add
/// it to their own routing state.
struct StateAnnounce final : net::TaggedPayload<StateAnnounce> {
  NodeRef node;

  [[nodiscard]] std::size_t wire_size() const override { return 24; }
  [[nodiscard]] const char* type_name() const override { return "StateAnnounce"; }
  [[nodiscard]] std::unique_ptr<net::Payload> clone_payload() const override {
    return std::make_unique<StateAnnounce>(*this);
  }
};

}  // namespace rbay::pastry
