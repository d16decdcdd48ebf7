#include "collabqos/core/archive.hpp"

namespace collabqos::core {

SessionArchiver::SessionArchiver(net::Network& network, net::NodeId node,
                                 const SessionInfo& session,
                                 std::uint64_t peer_id,
                                 ArchiverOptions options)
    : options_(options) {
  pubsub::PeerOptions peer_options;
  peer_options.port = session.port;
  // Promiscuous: the archive must record messages addressed to profiles
  // other than its own.
  peer_options.promiscuous = true;
  peer_ = std::make_unique<pubsub::SemanticPeer>(network, node, session.group,
                                                 peer_id, peer_options);
  peer_->profile().set("role", "archiver");
  peer_->on_message([this](const pubsub::SemanticMessage& message,
                           const pubsub::MatchDecision&) {
    if (history_.size() >= options_.capacity) {
      history_.pop_front();
      ++evicted_;
    }
    history_.push_back(message);
  });
}

Result<std::size_t> SessionArchiver::replay_to(net::Address destination) {
  std::size_t sent = 0;
  for (const pubsub::SemanticMessage& message : history_) {
    if (auto status = peer_->relay_to(destination, message); !status.ok()) {
      return status.error();
    }
    ++sent;
  }
  return sent;
}

}  // namespace collabqos::core
