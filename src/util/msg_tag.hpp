#pragma once

// Per-type message tags: constant-time downcasts for the message hierarchies
// (net::Payload, pastry::AppMessage, scribe::AnycastPayload).
//
// A tag is the address of a variable instantiated once per message type, so
// every type gets a distinct tag without one enum spanning the layers.  A
// message type derives from `Tagged<Self, Base>`, which stamps the tag into
// the base; receivers test it with msg_as<T>(), one pointer compare and a
// static_cast, instead of a chain of RTTI casts.  Types that derive from
// the base directly (test and bench messages) stay untagged, and msg_as
// never matches them.

#include <type_traits>

namespace rbay::util {

using MsgTag = const void*;

namespace detail {
template <class T>
inline char msg_tag_anchor = 0;
}  // namespace detail

/// The tag of message type T.
template <class T>
[[nodiscard]] constexpr MsgTag msg_tag() {
  return &detail::msg_tag_anchor<std::remove_cv_t<T>>;
}

/// Base of a tagged message type: `struct JoinMsg final : Tagged<JoinMsg, AppMessage>`.
/// `Base` needs a constructor taking the MsgTag.
template <class Derived, class Base>
struct Tagged : Base {
  Tagged() : Base(msg_tag<Derived>()) {}
};

/// `msg` as a T if it is one, else nullptr.
template <class T, class Base>
[[nodiscard]] T* msg_as(Base& msg) {
  static_assert(std::is_base_of_v<Base, T>, "msg_as: T must derive from the message base");
  return msg.tag() == msg_tag<T>() ? static_cast<T*>(&msg) : nullptr;
}

template <class T, class Base>
[[nodiscard]] const T* msg_as(const Base& msg) {
  static_assert(std::is_base_of_v<Base, T>, "msg_as: T must derive from the message base");
  return msg.tag() == msg_tag<T>() ? static_cast<const T*>(&msg) : nullptr;
}

}  // namespace rbay::util
