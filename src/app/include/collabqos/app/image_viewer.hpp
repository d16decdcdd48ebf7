// The image viewer (paper §4.1/§6): shares images into the session as
// progressive media objects (full pyramid + sketch + verbal description
// — the paper's three-part image file) and displays what the adaptive
// framework delivers, recording the quality metrics the evaluation
// plots (packets accepted, BPP, compression ratio).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "collabqos/core/client.hpp"
#include "collabqos/media/image.hpp"
#include "collabqos/media/quality.hpp"

namespace collabqos::app {

/// One displayed (post-adaptation) object.
struct Display {
  std::string object_id;
  media::Modality modality = media::Modality::text;
  std::optional<media::Image> image;  ///< when modality is image/sketch
  std::string text;                   ///< description / text fallback
  core::MediaAdaptationReport report;
};

class ImageViewer {
 public:
  explicit ImageViewer(core::CollaborationClient& client);

  /// Encode and share `image`. The description becomes the verbal tag
  /// for downstream modality transforms.
  Status share(const media::Image& image, std::string object_id,
               std::string description,
               pubsub::Selector audience = pubsub::Selector::always(),
               media::CodecParams codec = {});

  /// Everything displayed so far, in arrival order.
  [[nodiscard]] const std::vector<Display>& displays() const noexcept {
    return displays_;
  }

 private:
  void on_media(const pubsub::SemanticMessage& message,
                const media::MediaObject& object,
                const core::MediaAdaptationReport& report);

  core::CollaborationClient& client_;
  std::vector<Display> displays_;
};

}  // namespace collabqos::app
