// The simulated datagram network: unicast + multicast UDP semantics over
// per-node link models, driven by the discrete-event simulator. This is
// the "multicast communication substrate" of the paper's Section 5.1.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "collabqos/net/address.hpp"
#include "collabqos/net/link.hpp"
#include "collabqos/serde/chain.hpp"
#include "collabqos/serde/wire.hpp"
#include "collabqos/sim/simulator.hpp"
#include "collabqos/telemetry/counter_set.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::net {

/// One delivered datagram as seen by a receiver.
struct Datagram {
  Address source;
  Address destination;      ///< the receiver's own bound address
  bool via_multicast = false;
  GroupId group{};          ///< valid when via_multicast
  /// Shared with the sender and every other receiver of the same
  /// transmission — one encode, one buffer, N deliveries. A chain of
  /// views: typically [packet header][payload slice] straight from the
  /// sender's wire() call, storage never copied in transit.
  serde::ByteChain payload;
  /// Virtual time the sender handed the datagram to the network.
  /// Simulator-side metadata (a real UDP header has no such field); the
  /// telemetry layer uses it for net.transit trace spans.
  sim::TimePoint sent_at{};
};

using ReceiveHandler = std::function<void(const Datagram&)>;

class Network;

/// A bound, socket-like object. RAII: closes (unbinds, leaves groups) on
/// destruction. Obtained from Network::bind.
class Endpoint {
 public:
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;
  ~Endpoint();

  [[nodiscard]] Address address() const noexcept { return address_; }

  /// Install the receive callback (replaces any previous one).
  void on_receive(ReceiveHandler handler);

  /// Unreliable unicast send. The buffers are shared into the delivery
  /// path, never copied.
  Status send(Address destination, serde::ByteChain payload);
  Status send(Address destination, serde::SharedBytes payload) {
    return send(destination, serde::ByteChain(std::move(payload)));
  }
  Status send(Address destination, serde::Bytes payload) {
    return send(destination, serde::ByteChain(std::move(payload)));
  }

  /// Unreliable multicast send to every current member of `group`
  /// (including the sender itself if joined and loopback enabled). All
  /// members receive the same shared buffers.
  Status send_multicast(GroupId group, serde::ByteChain payload);
  Status send_multicast(GroupId group, serde::SharedBytes payload) {
    return send_multicast(group, serde::ByteChain(std::move(payload)));
  }
  Status send_multicast(GroupId group, serde::Bytes payload) {
    return send_multicast(group, serde::ByteChain(std::move(payload)));
  }

  Status join(GroupId group);
  Status leave(GroupId group);
  [[nodiscard]] bool member_of(GroupId group) const;

  /// Whether multicast sends loop back to this endpoint when it is a
  /// member of the target group (default: off, matching typical sockets).
  void set_multicast_loopback(bool enabled) noexcept { loopback_ = enabled; }

 private:
  friend class Network;
  Endpoint(Network& network, Address address) noexcept
      : network_(&network), address_(address) {}

  Network* network_;
  Address address_;
  ReceiveHandler handler_;
  std::set<std::uint32_t> groups_;
  bool loopback_ = false;
};

/// Chaos-plane verdict for one datagram crossing source -> destination,
/// consulted once per destination before the downlink link model. All
/// fields compose: a decision may both delay and duplicate, say.
struct FaultDecision {
  bool drop = false;            ///< swallow the datagram (partition)
  sim::Duration extra_delay{};  ///< reorder: added to the delivery time
  bool duplicate = false;       ///< deliver a second copy
  sim::Duration duplicate_skew{};  ///< extra delay on the duplicate
  bool corrupt = false;            ///< deliver a bit-flipped copy
  std::size_t corrupt_offset = 0;  ///< byte index (mod size) to damage
  std::uint8_t corrupt_xor = 0xff; ///< flip mask (0 degrades to no-op)
};

/// Installed by the chaos controller; the network itself stays fault-free
/// and RNG-free here — all stochastic choices live behind the hook.
using FaultHook =
    std::function<FaultDecision(Address source, Address destination,
                                std::size_t payload_bytes)>;

/// The network's counters, declared once (telemetry/counter_set.hpp;
/// registry families "net.datagrams.*" / "net.bytes.*", DESIGN.md §9).
#define COLLABQOS_NETWORK_COUNTERS(X)                                          \
  X(datagrams_sent, "net.datagrams.sent")                                      \
  X(datagrams_delivered, "net.datagrams.delivered")                            \
  X(datagrams_dropped_loss, "net.datagrams.dropped_loss")                      \
  X(datagrams_dropped_unbound, "net.datagrams.dropped_unbound")                \
  X(bytes_delivered, "net.bytes.delivered")                                    \
  X(datagrams_dropped_fault, "net.datagrams.dropped_fault") /* chaos drop */   \
  X(datagrams_duplicated, "net.datagrams.duplicated") /* extra chaos copies */ \
  X(datagrams_corrupted, "net.datagrams.corrupted") /* chaos bit-flips */

/// Per-node interface counters (what a MIB-II interfaces-group agent on
/// the node would expose: octets/packets in and out).
#define COLLABQOS_NODE_COUNTERS(X)                                             \
  X(datagrams_in, "net.node.datagrams_in")                                     \
  X(datagrams_out, "net.node.datagrams_out")                                   \
  X(bytes_in, "net.node.bytes_in")                                             \
  X(bytes_out, "net.node.bytes_out")

/// Point-in-time view of the network's counters.
struct NetworkStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_NETWORK_COUNTERS)
};

/// Point-in-time view of one node's interface counters.
struct NodeStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_NODE_COUNTERS)
};

class Network {
 public:
  /// `seed` drives all stochastic link behaviour. Each link gets an
  /// independent RNG stream derived from (seed, node id, direction), so
  /// link behaviour is bit-reproducible regardless of how many other
  /// nodes exist or whether the chaos plane is active.
  Network(sim::Simulator& simulator, std::uint64_t seed = 1);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  /// Register a node with given attachment characteristics. Returns its id.
  NodeId add_node(const std::string& name, LinkParams params = {});

  /// Re-configure a node's link (e.g. congestion onset mid-run). The
  /// link RNG streams are preserved across the swap; `params.loss_seed`
  /// is only consulted at add_node time.
  Status set_link_params(NodeId node, LinkParams params);
  [[nodiscard]] Result<LinkParams> link_params(NodeId node) const;

  /// Look a node up by the name given to add_node (first match). Chaos
  /// schedules reference nodes by name.
  [[nodiscard]] Result<NodeId> find_node(std::string_view name) const;

  /// Install (or clear, with nullptr) the chaos-plane fault hook. At most
  /// one hook; the chaos controller multiplexes active faults behind it.
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Bind a fresh endpoint on `node`:`port`. Port 0 auto-assigns.
  [[nodiscard]] Result<std::unique_ptr<Endpoint>> bind(NodeId node,
                                                       Port port = 0);

  [[nodiscard]] NetworkStats stats() const noexcept { return stats_.view(); }
  [[nodiscard]] Result<NodeStats> node_stats(NodeId node) const;
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }

  /// Maximum datagram payload the network accepts (enforced; senders
  /// above must fragment — the RTP layer does).
  static constexpr std::size_t kMaxDatagram = 64 * 1024;

 private:
  friend class Endpoint;

  /// Registry-backed network totals; NetworkStats is the cheap view.
  COLLABQOS_COUNTER_SET(NetworkCounters, NetworkStats,
                        COLLABQOS_NETWORK_COUNTERS);
  /// Per-node interface counters. Heap-allocated so their addresses (and
  /// the attached registry entries) survive Node being moved into the map.
  COLLABQOS_COUNTER_SET(NodeCounters, NodeStats, COLLABQOS_NODE_COUNTERS);

  struct Node {
    std::string name;
    std::unique_ptr<LinkModel> uplink;
    std::unique_ptr<LinkModel> downlink;
    Port next_ephemeral = 49152;
    std::unique_ptr<NodeCounters> counters;
  };

  Status send_unicast(Endpoint& from, Address to, serde::ByteChain payload);
  Status send_multicast(Endpoint& from, GroupId group,
                        serde::ByteChain payload);
  void unbind(Endpoint& endpoint);
  void join_group(Endpoint& endpoint, GroupId group);
  void leave_group(Endpoint& endpoint, GroupId group);
  /// Evaluate uplink at the source and downlink at each destination; on
  /// survival, schedule delivery.
  void route(Address source, Address destination, bool via_multicast,
             GroupId group, const serde::ByteChain& payload,
             sim::Duration uplink_delay);
  void schedule_delivery(Datagram datagram, sim::Duration delay);

  sim::Simulator& simulator_;
  std::uint64_t seed_;  ///< base for per-link derived RNG streams
  FaultHook fault_hook_;
  std::map<std::uint32_t, Node> nodes_;
  std::map<Address, Endpoint*> bound_;
  std::map<std::uint32_t, std::set<Address>> groups_;
  NetworkCounters stats_;
  std::uint32_t next_node_ = 1;
};

}  // namespace collabqos::net
