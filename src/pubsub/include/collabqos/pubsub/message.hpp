// State-based semantic messages (paper §3): "a message is semantically
// enhanced to include a sender-specified 'semantic-selector' in addition
// to the message body" — plus a content descriptor (Figure 3's "the
// semantic selector describes the attributes of the incoming stream"),
// which receivers match against their interests and capabilities.
#pragma once

#include <cstdint>
#include <string>

#include "collabqos/pubsub/attribute.hpp"
#include "collabqos/pubsub/profile.hpp"
#include "collabqos/pubsub/selector.hpp"
#include "collabqos/serde/chain.hpp"
#include "collabqos/serde/wire.hpp"

namespace collabqos::pubsub {

class SelectorCache;

struct SemanticMessage {
  /// Who may receive: evaluated against each receiver's profile
  /// attributes. Defaults to "everyone".
  Selector selector;
  /// What the payload is: attribute description of the content
  /// (media type, encoding, colour, size, topic, ...).
  AttributeSet content;
  /// Application event class ("image.share", "chat.post", ...).
  std::string event_type;
  /// Sender identity for ordering/diagnostics (not for addressing —
  /// addressing is semantic).
  std::uint64_t sender_id = 0;
  std::uint64_t sequence = 0;  ///< per-sender sequence number
  /// Application payload. On the receive path this is a zero-copy view
  /// into the reassembled wire bytes (often a single coalesced slice).
  serde::ByteChain payload;

  /// Serialise into one refcounted buffer — the only payload gather the
  /// zero-copy pipeline performs (charged to pipeline.bytes_copied.encode).
  /// Downstream layers fragment and transmit slices of this buffer.
  [[nodiscard]] serde::SharedBytes encode() const;
  /// Zero-copy decode: header fields are read from the chain (fast path
  /// when the reassembled chain coalesced to one slice) and the payload
  /// comes out as a view of the input's storage.
  [[nodiscard]] static Result<SemanticMessage> decode(
      const serde::ByteChain& bytes);
  /// As above, but the selector decode is served through `cache` —
  /// steady-state streams skip the selector decode + compile entirely.
  [[nodiscard]] static Result<SemanticMessage> decode(
      const serde::ByteChain& bytes, SelectorCache& cache);
};

/// Receiver-side semantic interpretation outcome (Figure 3).
struct MatchDecision {
  enum class Kind : std::uint8_t {
    rejected = 0,
    accepted = 1,
    accepted_with_transformation = 2,
  };
  Kind kind = Kind::rejected;
  /// When transformation is required: which content attribute converts.
  TransformCapability transformation;

  [[nodiscard]] bool delivered() const noexcept {
    return kind != Kind::rejected;
  }
};

/// The semantic interpretation process: selector vs profile attributes,
/// then interest vs content (directly, or after one declared capability
/// rewrites the content descriptor).
[[nodiscard]] MatchDecision match(const Profile& profile,
                                  const SemanticMessage& message);

}  // namespace collabqos::pubsub
