#include "collabqos/media/image.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace collabqos::media {

Image::Image(int width, int height, int channels)
    : width_(width), height_(height), channels_(channels) {
  assert(width > 0 && height > 0);
  assert(channels == 1 || channels == 3);
  pixels_.assign(static_cast<std::size_t>(width) *
                     static_cast<std::size_t>(height) *
                     static_cast<std::size_t>(channels),
                 0);
}

std::uint8_t Image::at(int x, int y, int c) const {
  assert(x >= 0 && x < width_ && y >= 0 && y < height_ && c < channels_);
  return pixels_[(static_cast<std::size_t>(y) * width_ + x) * channels_ + c];
}

void Image::set(int x, int y, int c, std::uint8_t value) {
  assert(x >= 0 && x < width_ && y >= 0 && y < height_ && c < channels_);
  pixels_[(static_cast<std::size_t>(y) * width_ + x) * channels_ + c] = value;
}

void Image::gray_row(int y, std::uint8_t* out) const {
  const auto width = static_cast<std::size_t>(width_);
  const std::uint8_t* in =
      pixels_.data() + static_cast<std::size_t>(y) * width *
                           static_cast<std::size_t>(channels_);
  if (channels_ == 1) {
    std::copy_n(in, width, out);
    return;
  }
  for (std::size_t x = 0; x < width; ++x, in += 3) {
    const double luma = 0.299 * in[0] + 0.587 * in[1] + 0.114 * in[2];
    out[x] = static_cast<std::uint8_t>(std::clamp(luma, 0.0, 255.0));
  }
}

namespace {

void paint_shape(Image& image, const SceneShape& shape, int channel) {
  const int w = image.width();
  const int h = image.height();
  const double cx = shape.cx * w;
  const double cy = shape.cy * h;
  const double extent = shape.size * std::min(w, h);
  const double extent2 = shape.size2 * std::min(w, h);
  const int x0 = std::max(0, static_cast<int>(cx - extent - extent2 - 2));
  const int x1 = std::min(w - 1, static_cast<int>(cx + extent + extent2 + 2));
  const int y0 = std::max(0, static_cast<int>(cy - extent - extent2 - 2));
  const int y1 = std::min(h - 1, static_cast<int>(cy + extent + extent2 + 2));
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      bool inside = false;
      switch (shape.kind) {
        case SceneShape::Kind::circle:
          inside = dx * dx + dy * dy <= extent * extent;
          break;
        case SceneShape::Kind::rectangle:
          inside = std::fabs(dx) <= extent && std::fabs(dy) <= extent2;
          break;
        case SceneShape::Kind::line: {
          // A thick segment along the x-direction rotated by size2*pi.
          const double angle = shape.size2 * std::numbers::pi;
          const double ux = std::cos(angle);
          const double uy = std::sin(angle);
          const double along = dx * ux + dy * uy;
          const double across = -dx * uy + dy * ux;
          inside = std::fabs(along) <= extent && std::fabs(across) <= 2.0;
          break;
        }
      }
      if (inside) image.set(x, y, channel, shape.intensity);
    }
  }
}

}  // namespace

Image render_scene(const Scene& scene, std::uint64_t seed) {
  Image image(scene.width, scene.height, scene.channels);
  Rng rng(seed);
  // Background: base level + slow 2D texture + noise, so the codec has
  // realistic low-frequency content.
  for (int y = 0; y < scene.height; ++y) {
    for (int x = 0; x < scene.width; ++x) {
      const double fx = static_cast<double>(x) / scene.width;
      const double fy = static_cast<double>(y) / scene.height;
      const double texture =
          scene.texture_amplitude *
          (std::sin(2.0 * std::numbers::pi * 3.0 * fx) *
               std::cos(2.0 * std::numbers::pi * 2.0 * fy) +
           0.5 * std::sin(2.0 * std::numbers::pi * 7.0 * (fx + fy)));
      const double noise = rng.normal(0.0, scene.noise_sigma);
      const double value = scene.background + texture + noise;
      for (int c = 0; c < scene.channels; ++c) {
        // Slight per-channel offset keeps RGB planes decorrelated.
        const double channel_value = value + 6.0 * c;
        image.set(x, y, c,
                  static_cast<std::uint8_t>(
                      std::clamp(channel_value, 0.0, 255.0)));
      }
    }
  }
  for (const SceneShape& shape : scene.shapes) {
    for (int c = 0; c < scene.channels; ++c) paint_shape(image, shape, c);
  }
  return image;
}

Scene make_crisis_scene(int width, int height, int channels) {
  Scene scene;
  scene.width = width;
  scene.height = height;
  scene.channels = channels;
  scene.background = 72;
  scene.texture_amplitude = 10.0;
  scene.noise_sigma = 2.5;
  scene.caption = "overhead view of the incident area";
  scene.shapes = {
      {SceneShape::Kind::rectangle, 0.30, 0.28, 0.10, 0.14, 180, "building"},
      {SceneShape::Kind::rectangle, 0.62, 0.30, 0.08, 0.10, 160, "building"},
      {SceneShape::Kind::circle, 0.48, 0.58, 0.06, 0.0, 230, "staging area"},
      {SceneShape::Kind::line, 0.50, 0.80, 0.42, 0.03, 210, "access road"},
      {SceneShape::Kind::circle, 0.20, 0.72, 0.03, 0.0, 250, "vehicle"},
      {SceneShape::Kind::circle, 0.27, 0.75, 0.03, 0.0, 245, "vehicle"},
      {SceneShape::Kind::line, 0.70, 0.55, 0.25, 0.45, 140, "perimeter"},
  };
  return scene;
}

Scene make_medical_scene(int width, int height) {
  Scene scene;
  scene.width = width;
  scene.height = height;
  scene.channels = 1;
  scene.background = 40;
  scene.texture_amplitude = 18.0;
  scene.noise_sigma = 3.0;
  scene.caption = "axial scan slice";
  scene.shapes = {
      {SceneShape::Kind::circle, 0.50, 0.50, 0.34, 0.0, 120, "tissue region"},
      {SceneShape::Kind::circle, 0.42, 0.44, 0.05, 0.0, 220, "lesion"},
      {SceneShape::Kind::circle, 0.60, 0.57, 0.025, 0.0, 235, "lesion"},
      {SceneShape::Kind::line, 0.50, 0.50, 0.36, 0.25, 90, "fissure"},
  };
  return scene;
}

}  // namespace collabqos::media
