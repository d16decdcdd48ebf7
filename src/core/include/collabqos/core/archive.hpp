// Session archiving (paper §3): "as collaboration is real-time, we do
// not support time-decoupling and store-and-forward mechanisms. Note
// that sessions can be archived to provide late clients with session
// history."
//
// The archiver is a silent peer in the multicast session that records
// every event in arrival order (bounded FIFO) and replays the history to
// a late joiner by unicast. Replayed messages keep their original sender
// identity, so operation logs deduplicate naturally and transcripts come
// out in the same total order as at long-standing members.
#pragma once

#include <deque>
#include <memory>

#include "collabqos/core/session.hpp"
#include "collabqos/pubsub/peer.hpp"

namespace collabqos::core {

struct ArchiverOptions {
  /// FIFO retention bound (oldest events are evicted first).
  std::size_t capacity = 4096;
};

class SessionArchiver {
 public:
  SessionArchiver(net::Network& network, net::NodeId node,
                  const SessionInfo& session, std::uint64_t peer_id,
                  ArchiverOptions options = {});

  /// Events currently retained.
  [[nodiscard]] std::size_t recorded() const noexcept {
    return history_.size();
  }
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }

  /// Replay the retained history, in order, to `destination` (a late
  /// client's session endpoint). Returns the number of events sent.
  Result<std::size_t> replay_to(net::Address destination);

  /// Drop everything retained so far.
  void clear() { history_.clear(); }

  [[nodiscard]] net::Address address() const noexcept {
    return peer_->address();
  }

 private:
  ArchiverOptions options_;
  std::unique_ptr<pubsub::SemanticPeer> peer_;
  std::deque<pubsub::SemanticMessage> history_;
  std::uint64_t evicted_ = 0;
};

}  // namespace collabqos::core
