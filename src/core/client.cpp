#include "collabqos/core/client.hpp"

#include <algorithm>

#include "collabqos/core/decision_audit.hpp"

namespace collabqos::core {

namespace {
/// Cadence at which RTP receiver reports are sampled into the decision
/// state (keys "net.loss.fraction", "net.jitter.ms").
constexpr sim::Duration kRtcpInterval = sim::Duration::seconds(1.0);
}  // namespace

CollaborationClient::CollaborationClient(net::Network& network,
                                         net::NodeId node,
                                         const SessionInfo& session,
                                         std::uint64_t client_id,
                                         snmp::Manager* manager,
                                         InferenceEngine engine,
                                         ClientConfig config)
    : id_(client_id),
      config_(std::move(config)),
      simulator_(&network.simulator()),
      engine_(std::move(engine)),
      concurrency_(client_id),
      transformers_(media::TransformerSuite::with_builtins()) {
  pubsub::PeerOptions peer_options;
  peer_options.port = session.port;
  peer_ = std::make_unique<pubsub::SemanticPeer>(network, node, session.group,
                                                 client_id, peer_options);
  peer_->profile().set("client.name", config_.name);
  peer_->on_message([this](const pubsub::SemanticMessage& message,
                           const pubsub::MatchDecision& decision) {
    on_message(message, decision);
  });
  if (manager != nullptr) {
    state_interface_ = std::make_unique<SystemStateInterface>(
        *manager, node, network.simulator());
    state_interface_->on_update(
        [this](const pubsub::AttributeSet&) { refresh_decision(); });
    state_interface_->start();
  }
  rtcp_timer_ = std::make_unique<sim::PeriodicTimer>(
      network.simulator(), kRtcpInterval,
      [this] { sample_network_quality(); });
  rtcp_timer_->start();
  refresh_decision();
}

void CollaborationClient::sample_network_quality() {
  double worst_loss = 0.0;
  double worst_jitter_us = 0.0;
  bool sampled = false;
  for (const std::uint64_t sender : peer_->heard_senders()) {
    auto report = peer_->receiver_report(sender);
    if (!report) continue;
    sampled = true;
    worst_loss = std::max(worst_loss, report.value().fraction_lost);
    worst_jitter_us =
        std::max(worst_jitter_us, report.value().interarrival_jitter_us);
  }
  if (!sampled) return;
  loss_estimate_.add(worst_loss);
  jitter_estimate_.add(worst_jitter_us);
  network_state_.set("net.loss.fraction", loss_estimate_.value());
  network_state_.set("net.jitter.ms", jitter_estimate_.value() / 1000.0);
  refresh_decision();
}

CollaborationClient::~CollaborationClient() = default;

void CollaborationClient::refresh_decision() {
  pubsub::AttributeSet state =
      state_interface_ ? state_interface_->state() : pubsub::AttributeSet{};
  state.merge(network_state_);
  state.merge(alert_state_);
  last_decision_ = engine_.decide(state);
  if (auto& audit = DecisionAuditLog::global(); audit.enabled()) {
    DecisionRecord record;
    record.time = simulator_->now();
    record.client = config_.name;
    record.inputs = std::move(state);
    record.contract_min_packets = engine_.contract().min_packets;
    record.contract_max_packets = engine_.contract().max_packets;
    record.decision = last_decision_;
    audit.record(std::move(record));
  }
}

Status CollaborationClient::share_media(const media::MediaObject& object,
                                        pubsub::Selector audience,
                                        pubsub::AttributeSet content,
                                        std::string object_id) {
  pubsub::SemanticMessage message;
  message.selector = std::move(audience);
  message.content = std::move(content);
  message.content.set("media.modality",
                      std::string(media::to_string(object.modality())));
  message.event_type = std::string(events::kMedia);
  message.payload = serde::ByteChain(object.encode());
  if (!object_id.empty()) {
    message.content.set("object.id", std::move(object_id));
  }
  return peer_->publish(std::move(message));
}

Status CollaborationClient::publish_operation(std::string object_id,
                                              std::string kind,
                                              serde::Bytes payload) {
  Operation op = concurrency_.originate(std::move(object_id),
                                        std::move(kind), std::move(payload));
  concurrency_.integrate(op);  // local echo: multicast skips the sender
  pubsub::SemanticMessage message;
  message.event_type = std::string(events::kOperation);
  message.payload = serde::ByteChain(op.encode());
  message.content.set("op.kind", op.kind);
  message.content.set("object.id", op.object_id);
  return peer_->publish(std::move(message));
}

void CollaborationClient::on_message(const pubsub::SemanticMessage& message,
                                     const pubsub::MatchDecision& decision) {
  if (message.event_type == events::kOperation) {
    auto op = Operation::decode(message.payload);
    if (!op) return;
    if (concurrency_.integrate(op.value())) {
      for (const auto& handler : operation_handlers_) handler(op.value());
    }
    return;
  }
  if (message.event_type == events::kAlert) {
    // Observatory SLO alerts become inference inputs: one attribute per
    // raised rule, cleared when the alert returns to ok. The next
    // refresh_decision() merges them into the audit-logged inputs.
    const auto* rule = message.content.find("rule");
    const auto* severity = message.content.find("severity");
    if (rule == nullptr || severity == nullptr) return;
    const auto rule_name = rule->as_string();
    const auto severity_name = severity->as_string();
    if (!rule_name || !severity_name) return;
    std::string key = "alert.";
    key += *rule_name;
    if (*severity_name == "ok") {
      alert_state_.erase(key);
    } else {
      alert_state_.set(key, std::string(*severity_name));
    }
    refresh_decision();
    return;
  }
  if (message.event_type != events::kMedia) {
    return;  // unknown event classes are ignored, not errors
  }
  auto object = media::MediaObject::decode(message.payload);
  if (!object) return;
  refresh_decision();
  AdaptationDecision effective = last_decision_;
  // An accept-with-transformation verdict from semantic matching (the
  // Figure 3 "accepts the message with a transformation" case) binds the
  // presentation modality when the declared capability names one.
  if (decision.kind ==
      pubsub::MatchDecision::Kind::accepted_with_transformation) {
    const auto name = decision.transformation.to.as_string();
    if (const auto target = media::modality_from_string(name.value_or(""))) {
      effective.modality = weaker_modality(effective.modality, *target);
      if (effective.modality != media::Modality::image) {
        effective.packets = 0;
      }
    }
  }
  auto adapted = adapt_media(object.value(), effective, transformers_);
  if (!adapted) return;
  const auto& [presented, report] = adapted.value();
  for (const auto& handler : media_handlers_) {
    handler(message, presented, report);
  }
}

}  // namespace collabqos::core
