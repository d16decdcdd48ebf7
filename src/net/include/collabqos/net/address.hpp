// Addressing for the simulated datagram network. Mirrors the paper's
// substrate: unicast node addresses plus IP-multicast-style group
// addresses ("the omnipresence of IP on different physical media").
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

namespace collabqos::net {

/// A node on the simulated network (a workstation, the base station, a
/// router). Dense small integers; 0 is reserved as "invalid".
enum class NodeId : std::uint32_t {};

[[nodiscard]] constexpr NodeId make_node(std::uint32_t raw) noexcept {
  return static_cast<NodeId>(raw);
}
[[nodiscard]] constexpr std::uint32_t raw(NodeId id) noexcept {
  return static_cast<std::uint32_t>(id);
}
inline constexpr NodeId kInvalidNode = make_node(0);

/// Multicast group identifier (the 224.0.0.0/4 analogue).
enum class GroupId : std::uint32_t {};

[[nodiscard]] constexpr GroupId make_group(std::uint32_t raw) noexcept {
  return static_cast<GroupId>(raw);
}
[[nodiscard]] constexpr std::uint32_t raw(GroupId id) noexcept {
  return static_cast<std::uint32_t>(id);
}

/// UDP-style port.
using Port = std::uint16_t;

/// A bound endpoint address.
struct Address {
  NodeId node = kInvalidNode;
  Port port = 0;

  friend constexpr auto operator<=>(const Address&, const Address&) = default;
};

}  // namespace collabqos::net

template <>
struct std::hash<collabqos::net::Address> {
  std::size_t operator()(const collabqos::net::Address& a) const noexcept {
    return (static_cast<std::size_t>(raw(a.node)) << 16) ^ a.port;
  }
};
