// Typed media payloads flowing through the collaboration session, plus
// their wire codec. A media object is what the information transformer
// (transform.hpp) converts between modalities.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "collabqos/media/codec.hpp"
#include "collabqos/media/sketch.hpp"
#include "collabqos/serde/chain.hpp"
#include "collabqos/serde/wire.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::media {

enum class Modality : std::uint8_t {
  text = 0,
  speech = 1,
  sketch = 2,
  image = 3,
};

[[nodiscard]] std::string_view to_string(Modality modality) noexcept;
/// The modality that to_string() names `name`; nullopt for any other name.
[[nodiscard]] std::optional<Modality> modality_from_string(
    std::string_view name) noexcept;

struct TextMedia {
  std::string text;
};

/// Synthetic speech: we do not ship an acoustic model, but the byte
/// volume and the embedded transcript reproduce what the QoS layer cares
/// about (payload size per modality; reversibility for speech-to-text).
struct SpeechMedia {
  serde::Bytes samples;     ///< synthesised waveform bytes
  std::string transcript;   ///< ground-truth text carried alongside
  double duration_seconds = 0.0;
};

struct SketchMedia {
  Sketch sketch;
};

/// The paper's three-part image file (§6.3): "(a) text description of
/// the image (b) base image which forms the sketch of the original image
/// ... and (c) the main image file with high resolution data."
struct ImageMedia {
  EncodedImage encoded;     ///< (c) the progressive high-resolution data
  int width = 0;
  int height = 0;
  int channels = 0;
  std::string description;  ///< (a) verbal tag used for image->text
  /// (b) the pre-computed base sketch; when present, sketch-grade
  /// forwarding needs no decode at the gateway. Empty width means absent.
  Sketch sketch;

  [[nodiscard]] bool has_sketch() const noexcept { return sketch.width > 0; }
};

class MediaObject {
 public:
  MediaObject() : content_(TextMedia{}) {}
  explicit MediaObject(TextMedia media) : content_(std::move(media)) {}
  explicit MediaObject(SpeechMedia media) : content_(std::move(media)) {}
  explicit MediaObject(SketchMedia media) : content_(std::move(media)) {}
  explicit MediaObject(ImageMedia media) : content_(std::move(media)) {}

  [[nodiscard]] Modality modality() const noexcept;

  template <typename T>
  [[nodiscard]] const T* get_if() const noexcept {
    return std::get_if<T>(&content_);
  }

  /// Approximate transmission size in bytes.
  [[nodiscard]] std::size_t size_bytes() const;

  [[nodiscard]] serde::Bytes encode() const;
  [[nodiscard]] static Result<MediaObject> decode(
      std::span<const std::uint8_t> bytes);
  /// Decode a zero-copy payload view at the pipeline edge. Contiguous
  /// chains (the common, coalesced case) decode in place; fragmented
  /// ones materialise here, charged to pipeline.bytes_copied.media.
  [[nodiscard]] static Result<MediaObject> decode(
      const serde::ByteChain& bytes);

 private:
  std::variant<TextMedia, SpeechMedia, SketchMedia, ImageMedia> content_;
};

}  // namespace collabqos::media
