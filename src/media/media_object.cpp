#include "collabqos/media/media_object.hpp"

#include <algorithm>

#include "collabqos/media/image.hpp"
#include "collabqos/telemetry/pipeline.hpp"

namespace collabqos::media {

namespace {
constexpr std::uint8_t kMediaMagic = 0x4D;
}

std::string_view to_string(Modality modality) noexcept {
  switch (modality) {
    case Modality::text: return "text";
    case Modality::speech: return "speech";
    case Modality::sketch: return "sketch";
    case Modality::image: return "image";
  }
  return "?";
}

Modality MediaObject::modality() const noexcept {
  return static_cast<Modality>(content_.index());
}

std::size_t MediaObject::size_bytes() const {
  return std::visit(
      [](const auto& media) -> std::size_t {
        using T = std::decay_t<decltype(media)>;
        if constexpr (std::is_same_v<T, TextMedia>) {
          return media.text.size();
        } else if constexpr (std::is_same_v<T, SpeechMedia>) {
          return media.samples.size() + media.transcript.size();
        } else if constexpr (std::is_same_v<T, SketchMedia>) {
          return media.sketch.encoded_bytes();
        } else {
          return media.encoded.total_bytes() + media.description.size();
        }
      },
      content_);
}

serde::Bytes MediaObject::encode() const {
  serde::Writer w;
  w.u8(kMediaMagic);
  w.u8(static_cast<std::uint8_t>(modality()));
  std::visit(
      [&w](const auto& media) {
        using T = std::decay_t<decltype(media)>;
        if constexpr (std::is_same_v<T, TextMedia>) {
          w.string(media.text);
        } else if constexpr (std::is_same_v<T, SpeechMedia>) {
          w.blob(media.samples);
          w.string(media.transcript);
          w.f64(media.duration_seconds);
        } else if constexpr (std::is_same_v<T, SketchMedia>) {
          w.blob(media.sketch.encode());
        } else {
          w.varint(static_cast<std::uint64_t>(media.width));
          w.varint(static_cast<std::uint64_t>(media.height));
          w.u8(static_cast<std::uint8_t>(media.channels));
          w.string(media.description);
          w.boolean(media.has_sketch());
          if (media.has_sketch()) w.blob(media.sketch.encode());
          w.blob(media.encoded.header);
          w.varint(media.encoded.packets.size());
          for (const auto& packet : media.encoded.packets) w.blob(packet);
        }
      },
      content_);
  return std::move(w).take();
}

Result<MediaObject> MediaObject::decode(const serde::ByteChain& bytes) {
  // Materialise at most once, at the pipeline's edge: a coalesced chain
  // is already contiguous and decodes in place.
  const serde::SharedBytes flat = telemetry::flatten_counted(
      bytes, telemetry::PipelineCounters::global().media);
  return decode(flat);
}

Result<MediaObject> MediaObject::decode(std::span<const std::uint8_t> bytes) {
  serde::Reader r(bytes);
  if (r.u8() != kMediaMagic) r.fail(Errc::malformed, "not a media object");
  const std::uint8_t tag = r.u8();
  if (!r.ok()) return r.error();
  switch (static_cast<Modality>(tag)) {
    case Modality::text: {
      TextMedia media{std::string(r.view_string())};
      if (!r.ok()) return r.error();
      return MediaObject(std::move(media));
    }
    case Modality::speech: {
      SpeechMedia media;
      media.samples = r.blob();
      media.transcript = r.view_string();
      media.duration_seconds = r.f64();
      if (!r.ok()) return r.error();
      return MediaObject(std::move(media));
    }
    case Modality::sketch: {
      const serde::Bytes blob = r.blob();
      if (!r.ok()) return r.error();
      auto sketch = Sketch::decode(blob);
      if (!sketch) return sketch.error();
      return MediaObject(SketchMedia{std::move(sketch).take()});
    }
    case Modality::image: {
      ImageMedia media;
      const std::uint64_t width = r.varint();
      const std::uint64_t height = r.varint();
      if (!plausible_extent(width, height)) {
        r.fail(Errc::malformed, "implausible image dimensions");
      }
      media.width = static_cast<int>(width);
      media.height = static_cast<int>(height);
      media.channels = r.u8();
      media.description = r.view_string();
      if (r.boolean()) {
        const serde::Bytes blob = r.blob();
        if (!r.ok()) return r.error();
        auto sketch = Sketch::decode(blob);
        if (!sketch) return sketch.error();
        media.sketch = std::move(sketch).take();
      }
      media.encoded.header = r.blob();
      const std::uint64_t count = r.varint();
      if (count > 4096) r.fail(Errc::malformed, "too many packets");
      // A packet takes at least its one-byte length, so the input present
      // bounds the reservation.
      media.encoded.packets.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(count, r.remaining())));
      for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
        media.encoded.packets.push_back(r.blob());
      }
      if (!r.ok()) return r.error();
      return MediaObject(std::move(media));
    }
  }
  return Error{Errc::malformed, "unknown modality tag"};
}

}  // namespace collabqos::media
