// The wired collaboration client (paper §4.1): joins the multicast
// session as a peer, couples the application to the adaptive framework,
// monitors local state through SNMP, and adapts incoming media with the
// inference engine before handing it to the application layer.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "collabqos/core/adaptation.hpp"
#include "collabqos/core/concurrency.hpp"
#include "collabqos/core/events.hpp"
#include "collabqos/core/inference.hpp"
#include "collabqos/core/session.hpp"
#include "collabqos/core/system_state.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/util/stats.hpp"

namespace collabqos::core {

struct ClientConfig {
  std::string name;
  /// Sample RTP receiver reports into the decision state (keys
  /// "net.loss.fraction", "net.jitter.ms") at this cadence; zero
  /// disables network-quality monitoring.
  sim::Duration rtcp_interval = sim::Duration::seconds(1.0);
};

class CollaborationClient {
 public:
  /// Adapted media delivery: original message, adapted object, and the
  /// adaptation report.
  using MediaHandler = std::function<void(const pubsub::SemanticMessage&,
                                          const media::MediaObject&,
                                          const MediaAdaptationReport&)>;
  using OperationHandler = std::function<void(const Operation&)>;

  /// Polls the local host's state through `manager`; a null manager
  /// runs open loop (no SNMP polling). The engine holds the QoS contract.
  CollaborationClient(net::Network& network, net::NodeId node,
                      const SessionInfo& session, std::uint64_t client_id,
                      snmp::Manager* manager, InferenceEngine engine,
                      ClientConfig config);
  ~CollaborationClient();
  CollaborationClient(const CollaborationClient&) = delete;
  CollaborationClient& operator=(const CollaborationClient&) = delete;

  // ---- identity & profile ----
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept {
    return config_.name;
  }
  [[nodiscard]] pubsub::Profile& profile() noexcept {
    return peer_->profile();
  }
  [[nodiscard]] net::Address address() const noexcept {
    return peer_->address();
  }

  // ---- publishing ----
  /// Share a media object with the session; `audience` selects receiver
  /// profiles; `content` describes the payload for interest matching
  /// (media.modality is stamped automatically).
  Status share_media(const media::MediaObject& object,
                     pubsub::Selector audience, pubsub::AttributeSet content,
                     std::string object_id = {});

  /// Publish a shared-object operation (concurrency-controlled).
  Status publish_operation(std::string object_id, std::string kind,
                           serde::Bytes payload);

  // ---- receiving ----
  /// Handlers accumulate: every registered application component sees
  /// every delivery (chat, whiteboard and image viewer coexist).
  void on_media(MediaHandler handler) {
    media_handlers_.push_back(std::move(handler));
  }
  void on_operation(OperationHandler handler) {
    operation_handlers_.push_back(std::move(handler));
  }

  // ---- subsystems ----
  [[nodiscard]] InferenceEngine& engine() noexcept { return engine_; }
  [[nodiscard]] ConcurrencyController& concurrency() noexcept {
    return concurrency_;
  }
  [[nodiscard]] media::TransformerSuite& transformers() noexcept {
    return transformers_;
  }
  [[nodiscard]] SystemStateInterface* system_state() noexcept {
    return state_interface_.get();
  }
  [[nodiscard]] pubsub::PeerStats peer_stats() const noexcept {
    return peer_->stats();
  }

  /// Latest adaptation decision (recomputed on every state update and
  /// before every media adaptation).
  [[nodiscard]] const AdaptationDecision& last_decision() const noexcept {
    return last_decision_;
  }

  /// Latest sampled network-quality attributes (empty until the first
  /// RTCP sampling tick with traffic).
  [[nodiscard]] const pubsub::AttributeSet& network_state() const noexcept {
    return network_state_;
  }

  /// Active SLO alerts received over the session substrate (one
  /// "alert.<rule>" attribute per raised alert, value = severity;
  /// cleared alerts are erased). Merged into every inference input, so
  /// observatory alerts show up in the DecisionAuditLog next to SNMP
  /// load and RTCP loss.
  [[nodiscard]] const pubsub::AttributeSet& alert_state() const noexcept {
    return alert_state_;
  }

 private:
  void on_message(const pubsub::SemanticMessage& message,
                  const pubsub::MatchDecision& decision);
  void refresh_decision();
  void sample_network_quality();

  std::uint64_t id_;
  ClientConfig config_;
  sim::Simulator* simulator_;  ///< decision-audit timestamps
  std::unique_ptr<pubsub::SemanticPeer> peer_;
  std::unique_ptr<SystemStateInterface> state_interface_;
  std::unique_ptr<sim::PeriodicTimer> rtcp_timer_;
  pubsub::AttributeSet network_state_;
  pubsub::AttributeSet alert_state_;
  Ewma loss_estimate_{0.3};     ///< smoothed worst-path loss fraction
  Ewma jitter_estimate_{0.3};   ///< smoothed worst-path jitter (us)
  InferenceEngine engine_;
  ConcurrencyController concurrency_;
  media::TransformerSuite transformers_;
  AdaptationDecision last_decision_;
  std::vector<MediaHandler> media_handlers_;
  std::vector<OperationHandler> operation_handlers_;
};

}  // namespace collabqos::core
