#include "collabqos/media/media_object.hpp"

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
  auto magic = r.u8();
  if (!magic) return magic.error();
  if (magic.value() != kMediaMagic) {
    return Error{Errc::malformed, "not a media object"};
  }
  auto tag = r.u8();
  if (!tag) return tag.error();
  switch (static_cast<Modality>(tag.value())) {
    case Modality::text: {
      auto text = r.string();
      if (!text) return text.error();
      return MediaObject(TextMedia{std::move(text).take()});
    }
    case Modality::speech: {
      SpeechMedia media;
      auto samples = r.blob();
      if (!samples) return samples.error();
      media.samples = std::move(samples).take();
      auto transcript = r.string();
      if (!transcript) return transcript.error();
      media.transcript = std::move(transcript).take();
      auto duration = r.f64();
      if (!duration) return duration.error();
      media.duration_seconds = duration.value();
      return MediaObject(std::move(media));
    }
    case Modality::sketch: {
      auto blob = r.blob();
      if (!blob) return blob.error();
      auto sketch = Sketch::decode(blob.value());
      if (!sketch) return sketch.error();
      return MediaObject(SketchMedia{std::move(sketch).take()});
    }
    case Modality::image: {
      ImageMedia media;
      auto width = r.varint();
      if (!width) return width.error();
      media.width = static_cast<int>(width.value());
      auto height = r.varint();
      if (!height) return height.error();
      media.height = static_cast<int>(height.value());
      auto channels = r.u8();
      if (!channels) return channels.error();
      media.channels = channels.value();
      auto description = r.string();
      if (!description) return description.error();
      media.description = std::move(description).take();
      auto has_sketch = r.boolean();
      if (!has_sketch) return has_sketch.error();
      if (has_sketch.value()) {
        auto blob = r.blob();
        if (!blob) return blob.error();
        auto sketch = Sketch::decode(blob.value());
        if (!sketch) return sketch.error();
        media.sketch = std::move(sketch).take();
      }
      auto header = r.blob();
      if (!header) return header.error();
      media.encoded.header = std::move(header).take();
      auto count = r.varint();
      if (!count) return count.error();
      if (count.value() > 4096) {
        return Error{Errc::malformed, "too many packets"};
      }
      media.encoded.packets.reserve(count.value());
      for (std::uint64_t i = 0; i < count.value(); ++i) {
        auto packet = r.blob();
        if (!packet) return packet.error();
        media.encoded.packets.push_back(std::move(packet).take());
      }
      return MediaObject(std::move(media));
    }
  }
  return Error{Errc::malformed, "unknown modality tag"};
}

}  // namespace collabqos::media
