// A wireless thin client (paper §4.2): joins the collaboration through
// the base station, which holds its profile and manages QoS on its
// behalf. The client communicates by unicast only — uplink events go to
// the base station; adapted session traffic arrives back by unicast.
//
// Control-plane actions (attach, profile updates, mobility, power) are
// modelled as direct calls into the BaseStationPeer: in the paper these
// ride the 802.11-era association/management channel, which carries no
// QoS-relevant payload, so simulating its datagrams would add noise
// without behaviour.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "collabqos/core/basestation_peer.hpp"

namespace collabqos::core {

struct ThinClientConfig {
  std::string name;
  wireless::Position position{};
  double tx_power_mw = 100.0;
  wireless::BatteryState battery{};
};

class ThinClient {
 public:
  using MediaHandler = std::function<void(const pubsub::SemanticMessage&,
                                          const media::MediaObject&)>;

  ThinClient(net::Network& network, net::NodeId node,
             const SessionInfo& session, wireless::StationId station,
             std::uint64_t peer_id, ThinClientConfig config);
  ~ThinClient();
  ThinClient(const ThinClient&) = delete;
  ThinClient& operator=(const ThinClient&) = delete;

  /// Associate with `base_station`; returns the service assessment.
  Result<wireless::RadioResourceManager::ServiceAssessment> attach(
      BaseStationPeer& base_station);
  Status detach();

  /// Local profile; push_profile() syncs it to the base station.
  [[nodiscard]] pubsub::Profile& profile() noexcept {
    return peer_->profile();
  }
  Status push_profile();

  /// Mobility and radio control (relayed to the BS radio manager).
  Status move(wireless::Position position);
  Status set_power(double tx_power_mw);

  /// Share media into the session via the base station.
  Status share_media(const media::MediaObject& object,
                     pubsub::Selector audience,
                     pubsub::AttributeSet content);

  /// Deliveries of adapted session traffic.
  void on_media(MediaHandler handler) { media_handler_ = std::move(handler); }

  [[nodiscard]] wireless::StationId station() const noexcept {
    return station_;
  }
  [[nodiscard]] std::uint64_t peer_id() const noexcept {
    return peer_->peer_id();
  }
  [[nodiscard]] net::Address address() const noexcept {
    return peer_->address();
  }
  [[nodiscard]] bool attached() const noexcept {
    return base_station_ != nullptr;
  }
  /// Media objects received, by presented modality (test/bench metric).
  [[nodiscard]] const std::map<media::Modality, std::size_t>&
  received_by_modality() const noexcept {
    return received_;
  }

 private:
  void on_message(const pubsub::SemanticMessage& message,
                  const pubsub::MatchDecision& decision);

  wireless::StationId station_;
  ThinClientConfig config_;
  std::unique_ptr<pubsub::SemanticPeer> peer_;
  BaseStationPeer* base_station_ = nullptr;
  MediaHandler media_handler_;
  std::map<media::Modality, std::size_t> received_;
};

}  // namespace collabqos::core
