#include "collabqos/media/haar.hpp"

#include <algorithm>
#include <cassert>

namespace collabqos::media {

namespace {

// S-transform on a pair (a, b): low = floor((a+b)/2), high = a-b. Each
// level runs the rows of its region out of place into one scratch plane
// (low half then high half of each row), then the columns back as row
// pairs, so the inner loops run along contiguous rows. An odd tail sample
// stays in the low band.

/// Forward transform of each of `rows` rows of `n` samples, from `src`
/// (row stride `src_stride`) into `dst` (row stride `dst_stride`).
void forward_rows(const std::int32_t* src, std::size_t src_stride,
                  std::int32_t* dst, std::size_t dst_stride, int n, int rows) {
  const int low_count = (n + 1) / 2;
  for (int y = 0; y < rows; ++y) {
    const std::int32_t* in = src + static_cast<std::size_t>(y) * src_stride;
    std::int32_t* low = dst + static_cast<std::size_t>(y) * dst_stride;
    std::int32_t* high = low + low_count;
    for (int i = 0; i < n / 2; ++i) {
      const std::int32_t a = in[2 * i];
      const std::int32_t b = in[2 * i + 1];
      low[i] = (a + b) >> 1;
      high[i] = a - b;
    }
    if (n % 2 == 1) low[low_count - 1] = in[n - 1];
  }
}

/// Forward transform down the columns of an `n`-row, `width`-wide block:
/// rows 2i and 2i+1 of `src` give low row i and high row low_count+i.
void forward_columns(const std::int32_t* src, std::size_t src_stride,
                     std::int32_t* dst, std::size_t dst_stride, int n,
                     int width) {
  const int low_count = (n + 1) / 2;
  for (int i = 0; i < n / 2; ++i) {
    const std::int32_t* a = src + static_cast<std::size_t>(2 * i) * src_stride;
    const std::int32_t* b = a + src_stride;
    std::int32_t* low = dst + static_cast<std::size_t>(i) * dst_stride;
    std::int32_t* high =
        dst + static_cast<std::size_t>(low_count + i) * dst_stride;
    for (int x = 0; x < width; ++x) {
      low[x] = (a[x] + b[x]) >> 1;
      high[x] = a[x] - b[x];
    }
  }
  if (n % 2 == 1) {
    std::copy_n(src + static_cast<std::size_t>(n - 1) * src_stride, width,
                dst + static_cast<std::size_t>(low_count - 1) * dst_stride);
  }
}

// The inverse pair: b = low - floor(high/2), a = b + high. Computed modulo
// 2^32, which equals the plain sums whenever those do not overflow.
inline std::int32_t wrap_add(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}
inline std::int32_t wrap_sub(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}

void inverse_columns(const std::int32_t* src, std::size_t src_stride,
                     std::int32_t* dst, std::size_t dst_stride, int n,
                     int width) {
  const int low_count = (n + 1) / 2;
  for (int i = 0; i < n / 2; ++i) {
    const std::int32_t* low = src + static_cast<std::size_t>(i) * src_stride;
    const std::int32_t* high =
        src + static_cast<std::size_t>(low_count + i) * src_stride;
    std::int32_t* a = dst + static_cast<std::size_t>(2 * i) * dst_stride;
    std::int32_t* b = a + dst_stride;
    for (int x = 0; x < width; ++x) {
      const std::int32_t second = wrap_sub(low[x], high[x] >> 1);
      a[x] = wrap_add(second, high[x]);
      b[x] = second;
    }
  }
  if (n % 2 == 1) {
    std::copy_n(src + static_cast<std::size_t>(low_count - 1) * src_stride,
                width, dst + static_cast<std::size_t>(n - 1) * dst_stride);
  }
}

void inverse_rows(const std::int32_t* src, std::size_t src_stride,
                  std::int32_t* dst, std::size_t dst_stride, int n, int rows) {
  const int low_count = (n + 1) / 2;
  for (int y = 0; y < rows; ++y) {
    const std::int32_t* low = src + static_cast<std::size_t>(y) * src_stride;
    const std::int32_t* high = low + low_count;
    std::int32_t* out = dst + static_cast<std::size_t>(y) * dst_stride;
    for (int i = 0; i < n / 2; ++i) {
      const std::int32_t second = wrap_sub(low[i], high[i] >> 1);
      out[2 * i] = wrap_add(second, high[i]);
      out[2 * i + 1] = second;
    }
    if (n % 2 == 1) out[n - 1] = low[low_count - 1];
  }
}

/// Region extents per level, outermost first.
std::vector<std::pair<int, int>> level_regions(int width, int height,
                                               int levels) {
  std::vector<std::pair<int, int>> regions;
  for (int level = 0; level < levels && (width >= 2 || height >= 2);
       ++level) {
    regions.emplace_back(width, height);
    width = (width + 1) / 2;
    height = (height + 1) / 2;
  }
  return regions;
}

}  // namespace

void forward_haar_inplace(CoefficientPlane& plane) {
  const auto stride = static_cast<std::size_t>(plane.width);
  std::vector<std::int32_t> scratch(plane.data.size());
  for (const auto& [rw, rh] :
       level_regions(plane.width, plane.height, plane.levels)) {
    const auto scratch_stride = static_cast<std::size_t>(rw);
    forward_rows(plane.data.data(), stride, scratch.data(), scratch_stride, rw,
                 rh);
    forward_columns(scratch.data(), scratch_stride, plane.data.data(), stride,
                    rh, rw);
  }
}

CoefficientPlane forward_haar(const std::uint8_t* plane, int width,
                              int height, int stride, int pixel_step,
                              int levels) {
  assert(width > 0 && height > 0 && levels >= 0);
  CoefficientPlane out;
  out.width = width;
  out.height = height;
  out.levels = levels;
  out.data.resize(static_cast<std::size_t>(width) * height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      out.data[static_cast<std::size_t>(y) * width + x] =
          plane[static_cast<std::size_t>(y) * stride +
                static_cast<std::size_t>(x) * pixel_step];
    }
  }
  forward_haar_inplace(out);
  return out;
}

void inverse_haar_inplace(CoefficientPlane& coefficients) {
  const auto stride = static_cast<std::size_t>(coefficients.width);
  std::vector<std::int32_t> scratch(coefficients.data.size());
  const auto regions = level_regions(coefficients.width, coefficients.height,
                                     coefficients.levels);
  for (auto it = regions.rbegin(); it != regions.rend(); ++it) {
    const auto [rw, rh] = *it;
    const auto scratch_stride = static_cast<std::size_t>(rw);
    inverse_columns(coefficients.data.data(), stride, scratch.data(),
                    scratch_stride, rh, rw);
    inverse_rows(scratch.data(), scratch_stride, coefficients.data.data(),
                 stride, rw, rh);
  }
}

void inverse_haar(const CoefficientPlane& coefficients, std::uint8_t* plane,
                  int stride, int pixel_step) {
  const int width = coefficients.width;
  const int height = coefficients.height;
  CoefficientPlane work = coefficients;
  inverse_haar_inplace(work);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const std::int32_t value =
          work.data[static_cast<std::size_t>(y) * width + x];
      plane[static_cast<std::size_t>(y) * stride +
            static_cast<std::size_t>(x) * pixel_step] =
          static_cast<std::uint8_t>(std::clamp(value, 0, 255));
    }
  }
}

std::vector<SubbandRect> subband_rects(int width, int height, int levels) {
  // sizes[l] is the LL region after l transforms.
  std::vector<std::pair<int, int>> sizes = level_regions(width, height, levels);
  const int effective_levels = static_cast<int>(sizes.size());
  sizes.emplace_back(sizes.empty() ? std::pair{width, height}
                                   : std::pair{(sizes.back().first + 1) / 2,
                                               (sizes.back().second + 1) / 2});
  std::vector<SubbandRect> rects;
  rects.reserve(1 + 3 * static_cast<std::size_t>(effective_levels));
  // Coarsest LL first.
  const auto [llw, llh] = sizes[static_cast<std::size_t>(effective_levels)];
  rects.push_back({0, 0, llw, llh});
  // Detail bands, coarse to fine.
  for (int level = effective_levels; level >= 1; --level) {
    const auto [pw, ph] = sizes[static_cast<std::size_t>(level - 1)];
    const auto [lw, lh] = sizes[static_cast<std::size_t>(level)];
    rects.push_back({lw, 0, pw, lh});   // HL (high in x, low in y)
    rects.push_back({0, lh, lw, ph});   // LH
    rects.push_back({lw, lh, pw, ph});  // HH
  }
  return rects;
}

}  // namespace collabqos::media
