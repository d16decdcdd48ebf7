#include "collabqos/media/transform.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <sstream>

namespace collabqos::media {

SpeechMedia synthesize_speech(const std::string& text) {
  SpeechMedia media;
  media.transcript = text;
  // Narration pace ~150 words/min; average English word ~5 chars.
  const double words = static_cast<double>(text.size()) / 5.0;
  media.duration_seconds = words / 150.0 * 60.0;
  // Coded audio at ~2 kB/s (roughly GSM-FR territory). Deterministic
  // pseudo-waveform derived from the text so equal inputs produce equal
  // bytes (useful for dedup tests).
  const auto sample_count =
      static_cast<std::size_t>(std::max(1.0, media.duration_seconds * 2000.0));
  media.samples.resize(sample_count);
  std::uint32_t state = 0x811c9dc5;
  for (const char c : text) {
    state = (state ^ static_cast<std::uint8_t>(c)) * 16777619u;
  }
  for (std::size_t i = 0; i < sample_count; ++i) {
    state = state * 1664525u + 1013904223u;
    const double envelope =
        std::sin(2.0 * 3.14159265358979 * static_cast<double>(i) / 400.0);
    media.samples[i] = static_cast<std::uint8_t>(
        128.0 + 90.0 * envelope + static_cast<double>(state >> 28));
  }
  return media;
}

namespace {

class ImageToSketch final : public Transformer {
 public:
  [[nodiscard]] Modality from() const noexcept override {
    return Modality::image;
  }
  [[nodiscard]] Modality to() const noexcept override {
    return Modality::sketch;
  }
  [[nodiscard]] Result<MediaObject> apply(
      const MediaObject& input) const override {
    const auto* media = input.get_if<ImageMedia>();
    if (media == nullptr) {
      return Error{Errc::malformed, "expected image media"};
    }
    // The three-part image file carries its base sketch (paper §6.3);
    // recomputing from pixels is the fallback for bare streams.
    if (media->has_sketch()) {
      return MediaObject(SketchMedia{media->sketch});
    }
    auto image = decode_progressive(media->encoded,
                                    media->encoded.packets.size());
    if (!image) return image.error();
    return MediaObject(
        SketchMedia{extract_sketch(image.value(), media->description)});
  }
};

class ImageToText final : public Transformer {
 public:
  [[nodiscard]] Modality from() const noexcept override {
    return Modality::image;
  }
  [[nodiscard]] Modality to() const noexcept override {
    return Modality::text;
  }
  [[nodiscard]] Result<MediaObject> apply(
      const MediaObject& input) const override {
    const auto* media = input.get_if<ImageMedia>();
    if (media == nullptr) {
      return Error{Errc::malformed, "expected image media"};
    }
    std::ostringstream text;
    text << "[image " << media->width << "x" << media->height << "] "
         << media->description;
    return MediaObject(TextMedia{text.str()});
  }
};

class SketchToText final : public Transformer {
 public:
  [[nodiscard]] Modality from() const noexcept override {
    return Modality::sketch;
  }
  [[nodiscard]] Modality to() const noexcept override {
    return Modality::text;
  }
  [[nodiscard]] Result<MediaObject> apply(
      const MediaObject& input) const override {
    const auto* media = input.get_if<SketchMedia>();
    if (media == nullptr) {
      return Error{Errc::malformed, "expected sketch media"};
    }
    return MediaObject(TextMedia{media->sketch.description});
  }
};

class TextToSpeech final : public Transformer {
 public:
  [[nodiscard]] Modality from() const noexcept override {
    return Modality::text;
  }
  [[nodiscard]] Modality to() const noexcept override {
    return Modality::speech;
  }
  [[nodiscard]] Result<MediaObject> apply(
      const MediaObject& input) const override {
    const auto* media = input.get_if<TextMedia>();
    if (media == nullptr) {
      return Error{Errc::malformed, "expected text media"};
    }
    return MediaObject(synthesize_speech(media->text));
  }
};

class SpeechToText final : public Transformer {
 public:
  [[nodiscard]] Modality from() const noexcept override {
    return Modality::speech;
  }
  [[nodiscard]] Modality to() const noexcept override {
    return Modality::text;
  }
  [[nodiscard]] Result<MediaObject> apply(
      const MediaObject& input) const override {
    const auto* media = input.get_if<SpeechMedia>();
    if (media == nullptr) {
      return Error{Errc::malformed, "expected speech media"};
    }
    return MediaObject(TextMedia{media->transcript});
  }
};

}  // namespace

TransformerSuite TransformerSuite::with_builtins() {
  TransformerSuite suite;
  suite.add(std::make_unique<ImageToSketch>());
  suite.add(std::make_unique<ImageToText>());
  suite.add(std::make_unique<SketchToText>());
  suite.add(std::make_unique<TextToSpeech>());
  suite.add(std::make_unique<SpeechToText>());
  return suite;
}

void TransformerSuite::add(std::unique_ptr<Transformer> transformer) {
  transformers_.push_back(std::move(transformer));
}

std::vector<const Transformer*> TransformerSuite::path(Modality from,
                                                       Modality to) const {
  if (from == to) return {};
  // BFS over the small modality graph.
  constexpr int kModalities = 4;
  std::array<const Transformer*, kModalities> via{};
  std::array<bool, kModalities> visited{};
  std::deque<Modality> frontier;
  frontier.push_back(from);
  visited[static_cast<int>(from)] = true;
  while (!frontier.empty()) {
    const Modality current = frontier.front();
    frontier.pop_front();
    for (const auto& transformer : transformers_) {
      if (transformer->from() != current) continue;
      const int next = static_cast<int>(transformer->to());
      if (visited[static_cast<std::size_t>(next)]) continue;
      visited[static_cast<std::size_t>(next)] = true;
      via[static_cast<std::size_t>(next)] = transformer.get();
      if (transformer->to() == to) {
        // Reconstruct the chain back to `from`.
        std::vector<const Transformer*> chain;
        Modality walk = to;
        while (walk != from) {
          const Transformer* edge = via[static_cast<int>(walk)];
          chain.push_back(edge);
          walk = edge->from();
        }
        std::reverse(chain.begin(), chain.end());
        return chain;
      }
      frontier.push_back(transformer->to());
    }
  }
  return {};  // unreachable target; caller distinguishes via from==to
}

Result<MediaObject> TransformerSuite::transform(const MediaObject& input,
                                                Modality target) const {
  if (input.modality() == target) return input;
  const auto chain = path(input.modality(), target);
  if (chain.empty()) {
    return Error{Errc::unsupported,
                 std::string("no transformation ") +
                     std::string(to_string(input.modality())) + " -> " +
                     std::string(to_string(target))};
  }
  MediaObject current = input;
  for (const Transformer* edge : chain) {
    auto next = edge->apply(current);
    if (!next) return next.error();
    current = std::move(next).take();
  }
  return current;
}

}  // namespace collabqos::media
