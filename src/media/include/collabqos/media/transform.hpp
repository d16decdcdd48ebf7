// The information transformer (paper §5.4): "a suite of media-specific
// information abstraction modules ... designed to be extendible so that
// new modules and media types can be easily incorporated."
//
// Built-in transformers: image->sketch, image->text, sketch->text,
// text->speech, speech->text. Multi-hop conversions (e.g. image->speech)
// are found by breadth-first search over registered edges, mirroring the
// paper's examples (image-to-speech goes via the description tag).
#pragma once

#include <memory>
#include <vector>

#include "collabqos/media/media_object.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::media {

/// One directed modality conversion.
class Transformer {
 public:
  virtual ~Transformer() = default;
  [[nodiscard]] virtual Modality from() const noexcept = 0;
  [[nodiscard]] virtual Modality to() const noexcept = 0;
  [[nodiscard]] virtual Result<MediaObject> apply(
      const MediaObject& input) const = 0;
};

/// Registry + path finder. Extendible: register your own transformer and
/// every route through it becomes available.
class TransformerSuite {
 public:
  /// A suite pre-loaded with the built-in transformers.
  [[nodiscard]] static TransformerSuite with_builtins();

  void add(std::unique_ptr<Transformer> transformer);

  /// Convert along the shortest registered path. Identity conversions
  /// return the input unchanged.
  [[nodiscard]] Result<MediaObject> transform(const MediaObject& input,
                                              Modality target) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return transformers_.size();
  }

 private:
  [[nodiscard]] std::vector<const Transformer*> path(Modality from,
                                                     Modality to) const;

  std::vector<std::unique_ptr<Transformer>> transformers_;
};

/// Synthesise speech bytes for `text` (deterministic waveform stub whose
/// size tracks real codecs: ~150 words/min narrated, 2 kB/s coded audio).
[[nodiscard]] SpeechMedia synthesize_speech(const std::string& text);

}  // namespace collabqos::media
