#include "collabqos/core/basestation_peer.hpp"

#include "collabqos/core/decision_audit.hpp"

namespace collabqos::core {

namespace {
media::Modality modality_for_grade(wireless::ModalityGrade grade) noexcept {
  switch (grade) {
    case wireless::ModalityGrade::full_image:
      return media::Modality::image;
    case wireless::ModalityGrade::text_sketch:
      return media::Modality::sketch;
    case wireless::ModalityGrade::text_only:
    case wireless::ModalityGrade::none:
      return media::Modality::text;
  }
  return media::Modality::text;
}

}  // namespace

AdaptationDecision decision_for_grade(wireless::ModalityGrade grade,
                                      media::Modality ceiling) {
  AdaptationDecision decision;
  decision.modality = weaker_modality(modality_for_grade(grade), ceiling);
  decision.packets = decision.modality == media::Modality::image ? 16 : 0;
  return decision;
}

BaseStationPeer::BaseStationPeer(net::Network& network, net::NodeId node,
                                 const SessionInfo& session,
                                 std::uint64_t peer_id,
                                 BaseStationOptions options)
    : network_(network),
      options_(options),
      transformers_(media::TransformerSuite::with_builtins()) {
  pubsub::PeerOptions peer_options;
  peer_options.port = session.port;
  // Promiscuous: the gateway interprets selectors against its *clients'*
  // profiles, not its own, so it must hear everything on the session.
  peer_options.promiscuous = true;
  peer_ = std::make_unique<pubsub::SemanticPeer>(network, node, session.group,
                                                 peer_id, peer_options);
  peer_->profile().set("role", "base-station");
  peer_->on_message([this](const pubsub::SemanticMessage& message,
                           const pubsub::MatchDecision&) {
    if (out_of_service_) {
      ++stats_.outage_dropped;  // injected outage: relay plane is dark
      return;
    }
    // Uplink events from registered thin clients also land here (they
    // unicast to the session port); distinguish by sender registry.
    for (const auto& [station, entry] : clients_) {
      if (entry.peer_id == message.sender_id) {
        on_uplink(message, entry.address);
        return;
      }
    }
    on_multicast(message);
  });
  radio_ = std::make_unique<wireless::RadioResourceManager>(options_.channel,
                                                            options_.radio);
  stats_.attach(telemetry::MetricsRegistry::global());
}

BaseStationPeer::~BaseStationPeer() = default;

Result<wireless::RadioResourceManager::ServiceAssessment>
BaseStationPeer::attach(AttachRequest request) {
  if (options_.client_limit && clients_.size() >= *options_.client_limit) {
    return Error{Errc::resource_limit, "cell is at its client limit"};
  }
  if (clients_.contains(raw(request.station))) {
    return Error{Errc::conflict, "station already attached"};
  }
  if (auto status = radio_->join(request.station, request.position,
                                 request.tx_power_mw);
      !status.ok()) {
    return status.error();
  }
  ClientEntry entry;
  entry.peer_id = request.peer_id;
  entry.address = request.address;
  entry.profile = std::move(request.profile);
  by_address_.emplace(request.address, request.station);
  clients_.emplace(raw(request.station), std::move(entry));
  // Power control re-runs after every join, leave and move.
  (void)radio_->balance();
  return radio_->assess(request.station);
}

Status BaseStationPeer::detach(wireless::StationId station) {
  const auto it = clients_.find(raw(station));
  if (it == clients_.end()) {
    return Status(Errc::no_such_object, "unknown station");
  }
  by_address_.erase(it->second.address);
  clients_.erase(it);
  (void)radio_->leave(station);
  (void)radio_->balance();
  return {};
}

Status BaseStationPeer::move(wireless::StationId station,
                             wireless::Position position) {
  const Status status = radio_->move(station, position);
  if (status.ok()) (void)radio_->balance();
  return status;
}

AdaptationDecision BaseStationPeer::decision_for(
    wireless::ModalityGrade grade, const pubsub::Profile& profile) const {
  // The client's expressed preference can only weaken further (a client
  // in text mode receives text even on a perfect channel).
  media::Modality ceiling = media::Modality::image;
  if (const pubsub::AttributeValue* preference =
          profile.attributes().find("prefer.modality")) {
    if (const auto name = preference->as_string()) {
      if (const auto preferred = media::modality_from_string(*name)) {
        ceiling = *preferred;
      }
    }
  }
  const AdaptationDecision decision = decision_for_grade(grade, ceiling);
  if (auto& audit = DecisionAuditLog::global(); audit.enabled()) {
    DecisionRecord record;
    record.time = network_.simulator().now();
    record.client = "base-station";
    record.inputs.set("radio.grade",
                      std::string(wireless::to_string(grade)));
    if (const pubsub::AttributeValue* preference =
            profile.attributes().find("prefer.modality")) {
      record.inputs.set("prefer.modality", *preference);
    }
    record.contract_min_packets = 0;
    record.contract_max_packets = 16;
    record.decision = decision;
    audit.record(std::move(record));
  }
  return decision;
}

void BaseStationPeer::forward_to_client(
    wireless::StationId station, const ClientEntry& entry,
    const pubsub::SemanticMessage& message) {
  // Semantic interpretation happens at the BS with the client's profile.
  const pubsub::MatchDecision matched = match(entry.profile, message);
  if (!matched.delivered()) {
    ++stats_.suppressed_by_profile;
    return;
  }
  const auto grade = radio_->grade(station);
  if (!grade || grade.value() == wireless::ModalityGrade::none) {
    ++stats_.suppressed_by_grade;
    return;
  }
  pubsub::SemanticMessage outgoing = message;
  if (message.event_type == events::kMedia) {
    auto object = media::MediaObject::decode(message.payload);
    if (!object) {
      ++stats_.adaptation_failures;
      return;
    }
    const AdaptationDecision decision =
        decision_for(grade.value(), entry.profile);
    auto adapted =
        adapt_media(object.value(), decision, transformers_);
    if (!adapted) {
      ++stats_.adaptation_failures;
      return;
    }
    outgoing.payload = serde::ByteChain(adapted.value().first.encode());
    outgoing.content.set(
        "media.modality",
        std::string(media::to_string(adapted.value().first.modality())));
    outgoing.content.set("adapted.by", "base-station");
  }
  ++stats_.downlink_unicasts;
  (void)peer_->send_to(entry.address, std::move(outgoing));
}

void BaseStationPeer::on_multicast(const pubsub::SemanticMessage& message) {
  for (const auto& [station, entry] : clients_) {
    forward_to_client(wireless::make_station(station), entry, message);
  }
}

void BaseStationPeer::on_uplink(const pubsub::SemanticMessage& message,
                                net::Address source) {
  ++stats_.uplink_events;
  // Uplink admission is SIR-gated by content weight: a client whose
  // grade is text-only cannot push an image into the session; the BS
  // abstracts it first (paper §6.3.1: "even in a low throughput network
  // condition, the BS is able to send certain modality of information
  // from a wireless client to the collaboration network").
  pubsub::SemanticMessage relayed = message;
  const auto station_it = by_address_.find(source);
  if (station_it != by_address_.end() &&
      message.event_type == events::kMedia) {
    const auto grade = radio_->grade(station_it->second);
    if (!grade || grade.value() == wireless::ModalityGrade::none) {
      ++stats_.suppressed_by_grade;
      return;
    }
    auto object = media::MediaObject::decode(message.payload);
    if (object) {
      auto adapted = adapt_media(object.value(),
                                 decision_for_grade(grade.value()),
                                 transformers_);
      if (adapted) {
        relayed.payload = serde::ByteChain(adapted.value().first.encode());
        relayed.content.set("media.modality",
                            std::string(media::to_string(
                                adapted.value().first.modality())));
      }
    }
  }
  ++stats_.multicast_relayed;
  // Multicast to the session (wired peers)...
  pubsub::SemanticMessage for_session = relayed;
  (void)peer_->publish(std::move(for_session));
  // ...and unicast to the other wireless clients.
  for (const auto& [station, entry] : clients_) {
    if (entry.address == source) continue;
    forward_to_client(wireless::make_station(station), entry, relayed);
  }
}

}  // namespace collabqos::core
