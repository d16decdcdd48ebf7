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

/// The record of one displayed (post-adaptation) object: what arrived and
/// the quality it was shown at.
struct Display {
  std::string object_id;
  media::Modality modality = media::Modality::text;
  core::MediaAdaptationReport report;
};

/// What the viewer shows now: the content of the latest display.
struct Screen {
  std::optional<media::Image> image;  ///< when modality is image/sketch
  std::string text;                   ///< description / text fallback
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

  /// The record of everything displayed so far, in arrival order.
  [[nodiscard]] const std::vector<Display>& displays() const noexcept {
    return displays_;
  }

  /// The decoded or rendered image and the text of the latest display;
  /// empty before the first. Earlier displays' content is not kept.
  [[nodiscard]] const Screen& screen() const noexcept { return screen_; }

 private:
  void on_media(const pubsub::SemanticMessage& message,
                const media::MediaObject& object,
                const core::MediaAdaptationReport& report);

  core::CollaborationClient& client_;
  std::vector<Display> displays_;
  Screen screen_;
};

}  // namespace collabqos::app
