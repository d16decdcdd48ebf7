#include "collabqos/core/thin_client.hpp"

namespace collabqos::core {

ThinClient::ThinClient(net::Network& network, net::NodeId node,
                       const SessionInfo& session,
                       wireless::StationId station, std::uint64_t peer_id,
                       ThinClientConfig config)
    : station_(station), config_(std::move(config)) {
  pubsub::PeerOptions peer_options;
  peer_options.port = session.port;
  peer_options.join_multicast = false;
  peer_ = std::make_unique<pubsub::SemanticPeer>(network, node, session.group,
                                                 peer_id, peer_options);
  peer_->profile().set("client.name", config_.name);
  peer_->profile().set("client.kind", "wireless");
  peer_->on_message([this](const pubsub::SemanticMessage& message,
                           const pubsub::MatchDecision& decision) {
    on_message(message, decision);
  });
}

ThinClient::~ThinClient() {
  if (base_station_ != nullptr) (void)detach();
}

Result<wireless::RadioResourceManager::ServiceAssessment> ThinClient::attach(
    BaseStationPeer& base_station) {
  if (base_station_ != nullptr) {
    return Error{Errc::conflict, "already attached"};
  }
  AttachRequest request;
  request.station = station_;
  request.peer_id = peer_->peer_id();
  request.address = peer_->address();
  request.profile = peer_->profile();
  request.position = config_.position;
  request.tx_power_mw = config_.tx_power_mw;
  request.battery = config_.battery;
  auto assessment = base_station.attach(std::move(request));
  if (assessment) base_station_ = &base_station;
  return assessment;
}

Status ThinClient::detach() {
  if (base_station_ == nullptr) {
    return Status(Errc::no_such_object, "not attached");
  }
  const Status status = base_station_->detach(station_);
  base_station_ = nullptr;
  return status;
}

Status ThinClient::push_profile() {
  if (base_station_ == nullptr) {
    return Status(Errc::unreachable, "not attached");
  }
  return base_station_->update_profile(station_, peer_->profile());
}

Status ThinClient::move(wireless::Position position) {
  if (base_station_ == nullptr) {
    return Status(Errc::unreachable, "not attached");
  }
  config_.position = position;
  return base_station_->move(station_, position);
}

Status ThinClient::set_power(double tx_power_mw) {
  if (base_station_ == nullptr) {
    return Status(Errc::unreachable, "not attached");
  }
  config_.tx_power_mw = tx_power_mw;
  return base_station_->set_power(station_, tx_power_mw);
}

Status ThinClient::share_media(const media::MediaObject& object,
                               pubsub::Selector audience,
                               pubsub::AttributeSet content) {
  if (base_station_ == nullptr) {
    return Status(Errc::unreachable, "not attached");
  }
  pubsub::SemanticMessage message;
  message.selector = std::move(audience);
  message.content = std::move(content);
  message.content.set("media.modality",
                      std::string(media::to_string(object.modality())));
  message.event_type = std::string(events::kMedia);
  message.payload = serde::ByteChain(object.encode());
  return peer_->send_to(base_station_->address(), std::move(message));
}

void ThinClient::on_message(const pubsub::SemanticMessage& message,
                            const pubsub::MatchDecision& decision) {
  (void)decision;
  if (message.event_type != events::kMedia) return;
  auto object = media::MediaObject::decode(message.payload);
  if (!object) return;
  ++received_[object.value().modality()];
  if (media_handler_) media_handler_(message, object.value());
}

}  // namespace collabqos::core
