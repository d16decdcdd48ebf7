// The event communication module (paper §5.3): "(a) associatively
// multicasting messages on the communication media, and (b) interpreting
// incoming messages ... for relevance and translating them into local
// events."
//
// A SemanticPeer binds a network endpoint, joins the session's multicast
// group, fragments outgoing semantic messages through the RTP layer, and
// reassembles + semantically interprets incoming ones against the local
// profile. Only accepted messages reach the application handler.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collabqos/net/network.hpp"
#include "collabqos/net/rtp.hpp"
#include "collabqos/pubsub/message.hpp"
#include "collabqos/pubsub/profile.hpp"
#include "collabqos/pubsub/retransmit_buffer.hpp"
#include "collabqos/pubsub/selector_cache.hpp"
#include "collabqos/telemetry/counter_set.hpp"

namespace collabqos::pubsub {

/// The peer's counters, declared once (telemetry/counter_set.hpp):
/// registry families "pubsub.peer.*" sum these across all live peers.
#define COLLABQOS_PEER_COUNTERS(X)                                             \
  X(published, "pubsub.peer.published")                                        \
  X(received_objects, "pubsub.peer.received_objects")                          \
  X(undecodable, "pubsub.peer.undecodable")                                    \
  X(incomplete_dropped, "pubsub.peer.incomplete_dropped")                      \
  X(rejected, "pubsub.peer.rejected")                                          \
  X(accepted, "pubsub.peer.accepted")                                          \
  X(accepted_with_transformation, "pubsub.peer.accepted_with_transformation")  \
  X(nacks_sent, "pubsub.peer.nacks_sent") /* repair requests issued */         \
  X(nacks_received, "pubsub.peer.nacks_received") /* requests served */        \
  X(retransmissions, "pubsub.peer.retransmissions") /* fragments resent */

/// Point-in-time view of one peer's counters.
struct PeerStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_PEER_COUNTERS)
};

struct PeerOptions {
  net::Port port = 5004;          ///< session data port (RTP convention)
  std::size_t mtu_payload = 1400; ///< fragment size on the wire
  /// Wireless thin clients communicate only by unicast through their
  /// base station (paper §4.2); they bind but do not join the group.
  bool join_multicast = true;
  /// Deliver every decodable message regardless of selector/interest
  /// matching (gateways and session archivers record on behalf of
  /// *other* profiles, so they must not filter on their own).
  bool promiscuous = false;
  /// Selective-repeat repair (paper §5.1's "limited in-order delivery
  /// assurance"): receivers NACK missing fragments back to the sender,
  /// which retransmits from a bounded buffer. Set attempts to 0 to run
  /// pure best-effort.
  int nack_attempts = 2;
};

class SemanticPeer {
 public:
  /// Fragments the sender keeps for retransmission; a NACK for an older
  /// one draws nothing.
  static constexpr std::size_t kRetransmitBufferPackets = 2048;

  /// `handler` receives every message this peer's profile accepts.
  using MessageHandler =
      std::function<void(const SemanticMessage&, const MatchDecision&)>;

  /// Binds `node`:`options.port` and joins `group`. Throws on bind
  /// failure (a peer without its endpoint is a configuration bug).
  SemanticPeer(net::Network& network, net::NodeId node, net::GroupId group,
               std::uint64_t peer_id, PeerOptions options = {});
  ~SemanticPeer();
  SemanticPeer(const SemanticPeer&) = delete;
  SemanticPeer& operator=(const SemanticPeer&) = delete;

  /// The locally maintained, locally modifiable profile.
  [[nodiscard]] Profile& profile() noexcept { return profile_; }
  [[nodiscard]] const Profile& profile() const noexcept { return profile_; }

  void on_message(MessageHandler handler) { handler_ = std::move(handler); }

  /// Multicast a semantic message to the session. Sender id/sequence are
  /// stamped here. Errc::out_of_range, and nothing sent, when the
  /// selector is deeper than Selector::kMaxDepth: no receiver could
  /// decode it (and_with and negate can build one).
  Status publish(SemanticMessage message);

  /// Unicast variant (wireless client -> base station leg).
  Status send_to(net::Address destination, SemanticMessage message);

  /// Unicast a message verbatim — original sender id and sequence are
  /// preserved (session-history replay; receivers deduplicate by the
  /// embedded operation/order identities, not transport identity).
  Status relay_to(net::Address destination, const SemanticMessage& message);

  [[nodiscard]] std::uint64_t peer_id() const noexcept { return peer_id_; }
  [[nodiscard]] net::Address address() const noexcept {
    return endpoint_->address();
  }
  [[nodiscard]] net::GroupId group() const noexcept { return group_; }
  [[nodiscard]] PeerStats stats() const noexcept { return stats_.view(); }
  [[nodiscard]] SelectorCache::Stats selector_cache_stats() const noexcept {
    return selector_cache_.stats();
  }

  /// RTCP-style receiver report for one remote sender (consumes the
  /// interval counters). The QoS layer folds these into the network
  /// state ("network bandwidth, latency, and jitter", paper §5.5).
  [[nodiscard]] Result<net::ReceiverReport> receiver_report(
      std::uint64_t sender_id) {
    return receiver_.report(static_cast<std::uint32_t>(sender_id));
  }
  /// Senders heard so far, ascending (for report iteration).
  [[nodiscard]] const std::vector<std::uint64_t>& heard_senders()
      const noexcept {
    return heard_senders_;
  }

 private:
  /// Registry-backed counters; PeerStats is the cheap view.
  COLLABQOS_COUNTER_SET(PeerCounters, PeerStats, COLLABQOS_PEER_COUNTERS);

  void on_datagram(const net::Datagram& datagram);
  void on_object(const net::RtpObject& object);
  /// `transport_timestamp` keys RTP reassembly; it must be unique per
  /// transmission from this peer (relays of foreign messages included).
  /// A message counts as published once its last fragment reaches `sink`.
  Status transmit(const SemanticMessage& message,
                  std::uint32_t transport_timestamp,
                  const std::function<Status(serde::ByteChain)>& sink);
  /// One repair/flush sweep (runs from the reassembly timer).
  void repair_tick();
  void handle_nack(const net::Datagram& datagram);

  net::Network& network_;
  std::unique_ptr<net::Endpoint> endpoint_;
  net::GroupId group_;
  std::uint64_t peer_id_;
  PeerOptions options_;
  Profile profile_;
  net::RtpPacketizer packetizer_;
  net::RtpReceiver receiver_;
  SelectorCache selector_cache_;
  std::unique_ptr<sim::PeriodicTimer> flush_timer_;
  MessageHandler handler_;
  std::uint64_t next_sequence_ = 1;
  PeerCounters stats_;
  std::vector<std::uint64_t> heard_senders_;  ///< sorted, unique
  /// Receiver-side ARQ state of one pending multi-fragment object: where
  /// its fragments come from (repairs are requested there, unicast, even
  /// for multicast data) and the NACKs sent for it so far.
  struct ArqState {
    net::Address source;
    int nacks_sent = 0;
  };
  /// Keyed by net::RtpReceiver::object_key(ssrc, transport timestamp).
  /// Holds only objects the receiver has pending: one-fragment objects
  /// never enter it.
  FlatMap<ArqState> arq_;
  /// Sender-side retransmit buffer (FIFO eviction).
  RetransmitBuffer sent_;
};

}  // namespace collabqos::pubsub
