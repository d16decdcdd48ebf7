// The base station (paper §4.2): "functions as the control coordinator
// while maintaining the wireless client state ... links the wireless
// network to the rest of the distributed collaborative session by
// joining the multicast session and is the gateway to the contributions
// of the wireless clients."
//
// Responsibilities implemented here:
//  * peer in the session multicast group;
//  * per-wireless-client profile registry (semantic interpretation for
//    thin clients happens HERE, not at the clients);
//  * SIR-driven modality grading per client (text / text+sketch / full
//    image thresholds), power control and battery conservation via the
//    radio resource manager;
//  * uplink: unicast event from a wireless client is multicast to the
//    session and unicast to the other wireless clients;
//  * downlink: multicast traffic is matched against each wireless
//    profile, adapted to the client's grade, and unicast to it.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "collabqos/core/adaptation.hpp"
#include "collabqos/core/events.hpp"
#include "collabqos/core/inference.hpp"
#include "collabqos/core/session.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/telemetry/counter_set.hpp"
#include "collabqos/wireless/basestation.hpp"

namespace collabqos::core {

/// Registration request from a thin client.
struct AttachRequest {
  wireless::StationId station{};
  std::uint64_t peer_id = 0;
  net::Address address;            ///< the client's unicast endpoint
  pubsub::Profile profile;         ///< kept and evaluated at the BS
  wireless::Position position{};
  double tx_power_mw = 100.0;
  wireless::BatteryState battery{};
};

/// The base station's counters, declared once
/// (telemetry/counter_set.hpp).
#define COLLABQOS_BASE_STATION_COUNTERS(X)                                     \
  X(uplink_events, "core.base_station.uplink_events")                          \
  X(multicast_relayed, "core.base_station.multicast_relayed")                  \
  X(downlink_unicasts, "core.base_station.downlink_unicasts")                  \
  X(suppressed_by_grade, "core.base_station.suppressed_by_grade")              \
  X(suppressed_by_profile, "core.base_station.suppressed_by_profile")          \
  X(adaptation_failures, "core.base_station.adaptation_failures")              \
  X(outage_dropped, "core.base_station.outage_dropped") /* injected outage */

/// Point-in-time view (registry families "core.base_station.*").
struct BaseStationStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_BASE_STATION_COUNTERS)
};

/// What the base station forwards at `grade`: the full progressive image
/// (16 packets) at full_image, otherwise the sketch or text abstraction
/// with no image packets. A weaker `ceiling` (the client's preferred
/// modality) caps the modality.
[[nodiscard]] AdaptationDecision decision_for_grade(
    wireless::ModalityGrade grade,
    media::Modality ceiling = media::Modality::image);

struct BaseStationOptions {
  wireless::ChannelParams channel{};
  wireless::RadioManagerParams radio{};
  /// Admission cap on simultaneous wireless clients (paper §6.3.3 "there
  /// exists an upper limit to the number of clients"); nullopt = none.
  std::optional<std::size_t> client_limit;
};

class BaseStationPeer {
 public:
  BaseStationPeer(net::Network& network, net::NodeId node,
                  const SessionInfo& session, std::uint64_t peer_id,
                  BaseStationOptions options = {});
  ~BaseStationPeer();
  BaseStationPeer(const BaseStationPeer&) = delete;
  BaseStationPeer& operator=(const BaseStationPeer&) = delete;

  /// Admit a wireless client; returns the basic service assessment
  /// (paper §4.2). Fails when the id is taken or the cell is full.
  Result<wireless::RadioResourceManager::ServiceAssessment> attach(
      AttachRequest request);
  Status detach(wireless::StationId station);

  /// Profile updates pushed by the thin client ("profiles are maintained
  /// and are modifiable by clients").
  Status update_profile(wireless::StationId station, pubsub::Profile profile);

  /// Mobility / radio updates.
  Status move(wireless::StationId station, wireless::Position position);
  Status set_power(wireless::StationId station, double tx_power_mw);

  /// Uplink entry point: a registered client's event arrives by unicast
  /// (called from the network receive path; exposed for tests).
  void on_uplink(const pubsub::SemanticMessage& message,
                 net::Address source);

  /// Chaos plane: take the relay plane out of service and back. While
  /// out, uplink and downlink traffic is dropped (counted in
  /// core.base_station.outage_dropped); the control plane (attach /
  /// detach / profile updates) keeps working, modelling a data-plane
  /// failure with an intact management channel.
  void set_out_of_service(bool out) noexcept { out_of_service_ = out; }

  [[nodiscard]] wireless::RadioResourceManager& radio() noexcept {
    return *radio_;
  }
  [[nodiscard]] BaseStationStats stats() const noexcept {
    return stats_.view();
  }
  [[nodiscard]] net::Address address() const noexcept {
    return peer_->address();
  }
  [[nodiscard]] std::size_t client_count() const noexcept {
    return clients_.size();
  }
  [[nodiscard]] Result<pubsub::Profile> profile_of(
      wireless::StationId station) const;

  /// The modality grade currently assigned to a client.
  [[nodiscard]] Result<wireless::ModalityGrade> grade(
      wireless::StationId station) const {
    return radio_->grade(station);
  }

 private:
  struct ClientEntry {
    std::uint64_t peer_id = 0;
    net::Address address;
    pubsub::Profile profile;
  };

  /// Registry-backed counters; BaseStationStats is the cheap view.
  COLLABQOS_COUNTER_SET(Counters, BaseStationStats,
                        COLLABQOS_BASE_STATION_COUNTERS);

  void on_multicast(const pubsub::SemanticMessage& message);
  /// Adapt and unicast `message` to one wireless client if its profile
  /// and grade admit it. `exclude_station` skips the uplink originator.
  void forward_to_client(wireless::StationId station,
                         const ClientEntry& entry,
                         const pubsub::SemanticMessage& message);
  [[nodiscard]] AdaptationDecision decision_for(
      wireless::ModalityGrade grade, const pubsub::Profile& profile) const;

  net::Network& network_;
  BaseStationOptions options_;
  std::unique_ptr<pubsub::SemanticPeer> peer_;
  std::unique_ptr<wireless::RadioResourceManager> radio_;
  std::map<std::uint32_t, ClientEntry> clients_;
  std::map<net::Address, wireless::StationId> by_address_;
  media::TransformerSuite transformers_;
  Counters stats_;
  bool out_of_service_ = false;
};

}  // namespace collabqos::core
