// The sketch extractor as it was before the integer Sobel pass: gradient
// magnitudes as std::hypot in double, ranked with nth_element over all
// pixels. Kept only as the oracle that extract_sketch must match edge map
// for edge map.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "collabqos/media/image.hpp"
#include "collabqos/media/sketch.hpp"

namespace collabqos::media::legacy {

/// The grayscale image extract_sketch used to convert a colour image to
/// in one call (ITU-R 601 luma weights); a copy of a gray one.
inline Image to_grayscale(const Image& image) {
  if (image.channels() == 1) return image;
  Image gray(image.width(), image.height(), 1);
  const std::uint8_t* rgb = image.pixels().data();
  for (std::size_t p = 0; p < image.pixel_count(); ++p, rgb += 3) {
    const double luma = 0.299 * rgb[0] + 0.587 * rgb[1] + 0.114 * rgb[2];
    gray.pixels()[p] = static_cast<std::uint8_t>(std::clamp(luma, 0.0, 255.0));
  }
  return gray;
}

/// The decimated binary edge map extract_sketch run-length codes.
inline std::vector<std::uint8_t> sketch_edges(const Image& image,
                                              SketchParams params = {}) {
  const Image gray = to_grayscale(image);
  const int w = gray.width();
  const int h = gray.height();
  std::vector<double> gradient(static_cast<std::size_t>(w) * h, 0.0);
  for (int y = 1; y + 1 < h; ++y) {
    for (int x = 1; x + 1 < w; ++x) {
      const auto p = [&](int dx, int dy) {
        return static_cast<double>(gray.at(x + dx, y + dy));
      };
      const double gx = (p(1, -1) + 2.0 * p(1, 0) + p(1, 1)) -
                        (p(-1, -1) + 2.0 * p(-1, 0) + p(-1, 1));
      const double gy = (p(-1, 1) + 2.0 * p(0, 1) + p(1, 1)) -
                        (p(-1, -1) + 2.0 * p(0, -1) + p(1, -1));
      gradient[static_cast<std::size_t>(y) * w + x] = std::hypot(gx, gy);
    }
  }
  std::vector<double> sorted = gradient;
  const auto rank = static_cast<std::size_t>(
      params.threshold_quantile * static_cast<double>(sorted.size() - 1));
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.end());
  const double threshold = std::max(1.0, sorted[rank]);
  const int dw = (w + params.decimation - 1) / params.decimation;
  const int dh = (h + params.decimation - 1) / params.decimation;
  std::vector<std::uint8_t> edges(static_cast<std::size_t>(dw) * dh, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (gradient[static_cast<std::size_t>(y) * w + x] >= threshold) {
        edges[static_cast<std::size_t>(y / params.decimation) * dw +
              x / params.decimation] = 1;
      }
    }
  }
  return edges;
}

}  // namespace collabqos::media::legacy
