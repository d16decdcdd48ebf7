// Raster images and synthetic scene generation. The paper's test-bed
// shares real images through the image viewer; offline we generate
// deterministic synthetic scenes that (a) are non-trivial to compress,
// (b) segment cleanly into a sketch, and (c) carry the verbal
// description the modality transformers need.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "collabqos/util/result.hpp"
#include "collabqos/util/rng.hpp"

namespace collabqos::media {

/// Decoders refuse an image of this many samples per channel (width x
/// height) or more, before allocating anything for it. The largest image
/// the repository builds is 1024x1024.
inline constexpr std::uint64_t kMaxDecodedSamples = std::uint64_t{1} << 24;

/// Whether a decoded width x height can name an image: both non-zero,
/// each at most 2^15 (so it narrows to int exactly), and fewer than
/// kMaxDecodedSamples samples in all.
[[nodiscard]] constexpr bool plausible_extent(std::uint64_t width,
                                              std::uint64_t height) noexcept {
  return width != 0 && height != 0 && width <= 1u << 15 &&
         height <= 1u << 15 && width * height < kMaxDecodedSamples;
}

/// 8-bit raster, 1 (grayscale) or 3 (RGB) channels, row-major interleaved.
class Image {
 public:
  Image() = default;
  Image(int width, int height, int channels);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] int channels() const noexcept { return channels_; }
  [[nodiscard]] bool empty() const noexcept { return pixels_.empty(); }

  /// Raw size in bytes (the compression-ratio baseline).
  [[nodiscard]] std::size_t raw_bytes() const noexcept {
    return pixels_.size();
  }
  [[nodiscard]] std::size_t pixel_count() const noexcept {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }

  [[nodiscard]] std::uint8_t at(int x, int y, int c = 0) const;
  void set(int x, int y, int c, std::uint8_t value);

  [[nodiscard]] const std::vector<std::uint8_t>& pixels() const noexcept {
    return pixels_;
  }
  [[nodiscard]] std::vector<std::uint8_t>& pixels() noexcept {
    return pixels_;
  }

  /// Row y in grayscale (ITU-R 601 luma weights) into the width() values
  /// at `out`; a copy for 1-channel.
  void gray_row(int y, std::uint8_t* out) const;

 private:
  int width_ = 0;
  int height_ = 0;
  int channels_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// A shape in a synthetic scene. The scene doubles as ground truth for
/// the image→text modality transformation (it "knows" what is depicted).
struct SceneShape {
  enum class Kind : std::uint8_t { circle, rectangle, line } kind =
      Kind::circle;
  double cx = 0.0, cy = 0.0;   ///< centre (fraction of image size, 0..1)
  double size = 0.1;           ///< radius / half-extent fraction
  double size2 = 0.1;          ///< second extent for rectangles/lines
  std::uint8_t intensity = 200;
  std::string label;           ///< "vehicle", "building", ... for description
};

struct Scene {
  int width = 512;
  int height = 512;
  int channels = 1;
  std::uint8_t background = 64;
  double texture_amplitude = 8.0;  ///< low-frequency background texture
  double noise_sigma = 2.0;        ///< per-pixel sensor noise
  std::vector<SceneShape> shapes;
  std::string caption;             ///< scenario-level description
};

/// Render a scene deterministically under `seed`.
[[nodiscard]] Image render_scene(const Scene& scene, std::uint64_t seed = 7);

/// A ready-made scene: an urban crisis-management overhead view with
/// labelled shapes (the paper's motivating domain).
[[nodiscard]] Scene make_crisis_scene(int width, int height, int channels);

/// A medical telediagnosis-style scene (smooth gradients + lesions).
[[nodiscard]] Scene make_medical_scene(int width, int height);

}  // namespace collabqos::media
