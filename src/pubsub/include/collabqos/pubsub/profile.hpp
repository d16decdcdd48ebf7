// Client profiles (paper §3): "each client locally maintains a profile
// that defines its current state, its interests and its capabilities.
// All interactions in this scheme are then addressed to profiles rather
// than explicit names."
//
// A profile is (a) an attribute set describing the client, (b) an
// optional interest selector evaluated against incoming message content
// descriptors, and (c) declared transformation capabilities, which let a
// client accept content it cannot use natively by converting it
// (Figure 3's "accepts the message with a transformation").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "collabqos/pubsub/attribute.hpp"
#include "collabqos/pubsub/selector.hpp"

namespace collabqos::pubsub {

/// A declared ability to convert content attribute `attribute` from
/// value `from` to value `to` (e.g. encoding 'MPEG2' -> 'JPEG', or
/// modality 'image' -> 'text').
struct TransformCapability {
  std::string attribute;
  AttributeValue from;
  AttributeValue to;

  friend bool operator==(const TransformCapability& a,
                         const TransformCapability& b) noexcept {
    return a.attribute == b.attribute && a.from == b.from && a.to == b.to;
  }
};

class Profile {
 public:
  [[nodiscard]] const AttributeSet& attributes() const noexcept {
    return attributes_;
  }
  void set(std::string key, AttributeValue value);

  [[nodiscard]] const std::optional<Selector>& interest() const noexcept {
    return interest_;
  }
  void set_interest(Selector interest);

  [[nodiscard]] const std::vector<TransformCapability>& capabilities()
      const noexcept {
    return capabilities_;
  }
  void add_capability(TransformCapability capability);

 private:
  AttributeSet attributes_;
  std::optional<Selector> interest_;
  std::vector<TransformCapability> capabilities_;
};

}  // namespace collabqos::pubsub
