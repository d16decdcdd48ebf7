// The global-naming baseline the paper argues against (§3):
// "Traditional distributed information management approaches are based
// on global naming services ... every application client that enters a
// session must register itself with the naming server, explicitly
// stating its interests. The server then ... informs existing clients
// about the new client's interests. ... the dynamics of such a
// collaborative framework is limited by the rate at which the network
// can synchronize distributing names, interests and capabilities."
//
// This module implements that architecture faithfully — a central
// naming server pushing full roster updates, senders filtering against
// their (possibly stale) roster copy and unicasting per recipient — so
// the ablation bench can measure exactly the costs the semantic
// substrate removes: join latency, per-message fan-out bytes, and the
// staleness window on interest changes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "collabqos/net/network.hpp"
#include "collabqos/pubsub/attribute.hpp"
#include "collabqos/pubsub/selector.hpp"
#include "collabqos/telemetry/counter_set.hpp"

namespace collabqos::pubsub::baseline {

/// One roster entry: a named client and its declared interests.
struct RosterEntry {
  std::string name;
  net::Address address;
  Selector interest;  ///< over message content attributes

  void encode(serde::Writer& w) const;
  /// Reads one entry; a fault latches in `r` (check r.ok()).
  [[nodiscard]] static RosterEntry decode(serde::Reader& r);
};

/// Application payload as delivered by the baseline substrate.
struct NamedMessage {
  std::string sender;
  AttributeSet content;
  serde::Bytes payload;
};

/// The naming server's counters, declared once
/// (telemetry/counter_set.hpp).
#define COLLABQOS_NAMING_SERVER_COUNTERS(X)                                    \
  X(registrations, "baseline.naming_server.registrations")                     \
  X(roster_pushes, "baseline.naming_server.roster_pushes") /* datagrams */     \
  X(roster_bytes, "baseline.naming_server.roster_bytes")

/// Point-in-time view (registry families "baseline.naming_server.*").
struct NamingServerStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_NAMING_SERVER_COUNTERS)
};

/// The central naming server (well-known port 7000 on its node).
class NamingServer {
 public:
  static constexpr net::Port kPort = 7000;

  NamingServer(net::Network& network, net::NodeId node);

  [[nodiscard]] net::Address address() const noexcept {
    return endpoint_->address();
  }
  [[nodiscard]] std::size_t roster_size() const noexcept {
    return roster_.size();
  }
  [[nodiscard]] NamingServerStats stats() const noexcept {
    return stats_.view();
  }

 private:
  COLLABQOS_COUNTER_SET(Counters, NamingServerStats,
                        COLLABQOS_NAMING_SERVER_COUNTERS);

  void handle(const net::Datagram& datagram);
  void broadcast_roster();

  net::Network& network_;
  std::unique_ptr<net::Endpoint> endpoint_;
  std::map<std::string, RosterEntry> roster_;
  Counters stats_;
};

/// A named client's counters, declared once (telemetry/counter_set.hpp).
#define COLLABQOS_NAMED_CLIENT_COUNTERS(X)                                     \
  X(sent_unicasts, "baseline.named_client.sent_unicasts")                      \
  X(sent_bytes, "baseline.named_client.sent_bytes")                            \
  X(delivered, "baseline.named_client.delivered")                              \
  X(roster_updates, "baseline.named_client.roster_updates")

/// Point-in-time view (registry families "baseline.named_client.*").
struct NamedClientStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_NAMED_CLIENT_COUNTERS)
};

/// A client of the naming service.
class NamedClient {
 public:
  using MessageHandler = std::function<void(const NamedMessage&)>;

  NamedClient(net::Network& network, net::NodeId node, std::string name,
              net::Address server);

  /// Register (or re-register with changed interests). The server
  /// rebroadcasts the roster; until that lands, other senders filter
  /// against the old interests — the staleness the bench measures.
  Status register_interest(Selector interest);

  /// Send to every roster entry whose interest matches `content`
  /// (per-recipient unicast, the baseline's fan-out cost).
  Status publish(AttributeSet content, serde::Bytes payload);

  void on_message(MessageHandler handler) { handler_ = std::move(handler); }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t known_roster_size() const noexcept {
    return roster_.size();
  }
  [[nodiscard]] NamedClientStats stats() const noexcept {
    return stats_.view();
  }
  [[nodiscard]] net::Address address() const noexcept {
    return endpoint_->address();
  }

 private:
  COLLABQOS_COUNTER_SET(Counters, NamedClientStats,
                        COLLABQOS_NAMED_CLIENT_COUNTERS);

  void handle(const net::Datagram& datagram);

  net::Network& network_;
  std::unique_ptr<net::Endpoint> endpoint_;
  std::string name_;
  net::Address server_;
  std::vector<RosterEntry> roster_;
  MessageHandler handler_;
  Counters stats_;
};

}  // namespace collabqos::pubsub::baseline
