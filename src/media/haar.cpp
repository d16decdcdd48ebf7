#include "collabqos/media/haar.hpp"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace collabqos::media {

namespace {

// S-transform on a pair (a, b): low = floor((a+b)/2), high = a-b, along
// the rows of a level's region and then down its columns; an odd tail
// sample stays in the low band. Each level is one pass over its region
// that takes two rows in and gives two rows out, the row and column steps
// fused, so that a level reads and writes each sample once. Its rows
// cannot all go back in place, so the other rows of a pair go through a
// scratch plane of the same stride.

/// One forward level over the `w` x `h` region of `data`. The low rows
/// go in place, the high rows to the same rows of `scratch`: rows 2i and
/// 2i+1 are read before low row i is written, and no later pair reads row
/// i, but high row lh+i may be a later pair's. Row 0 is read from a copy,
/// as pair 0 writes it while reading it.
void forward_level(std::int32_t* data, std::int32_t* scratch,
                   std::size_t stride, int w, int h) {
  const int lw = (w + 1) / 2;
  const int lh = (h + 1) / 2;
  std::copy_n(data, w, scratch);
  const auto row = [stride](std::int32_t* plane, int y) {
    return plane + static_cast<std::size_t>(y) * stride;
  };
  for (int i = 0; i < h / 2; ++i) {
    const std::int32_t* __restrict a = i == 0 ? scratch : row(data, 2 * i);
    const std::int32_t* __restrict b = row(data, 2 * i + 1);
    std::int32_t* __restrict low = row(data, i);
    std::int32_t* __restrict high = row(scratch, lh + i);
    int j = 0;
#if defined(__SSE2__)
    // Four pairs at a time: the even and odd samples of 8 split by a
    // shuffle (of the bits as floats, which SSE2 has).
    const auto split = [](const std::int32_t* at, __m128i& even, __m128i& odd) {
      const __m128 first = _mm_castsi128_ps(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(at)));
      const __m128 second = _mm_castsi128_ps(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(at + 4)));
      even = _mm_castps_si128(_mm_shuffle_ps(first, second, _MM_SHUFFLE(2, 0, 2, 0)));
      odd = _mm_castps_si128(_mm_shuffle_ps(first, second, _MM_SHUFFLE(3, 1, 3, 1)));
    };
    const auto store = [](std::int32_t* at, __m128i v) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(at), v);
    };
    for (; j + 4 <= w / 2; j += 4) {
      __m128i a_even, a_odd, b_even, b_odd;
      split(a + 2 * j, a_even, a_odd);
      split(b + 2 * j, b_even, b_odd);
      const __m128i a_low = _mm_srai_epi32(_mm_add_epi32(a_even, a_odd), 1);
      const __m128i a_high = _mm_sub_epi32(a_even, a_odd);
      const __m128i b_low = _mm_srai_epi32(_mm_add_epi32(b_even, b_odd), 1);
      const __m128i b_high = _mm_sub_epi32(b_even, b_odd);
      store(low + j, _mm_srai_epi32(_mm_add_epi32(a_low, b_low), 1));
      store(high + j, _mm_sub_epi32(a_low, b_low));
      store(low + lw + j, _mm_srai_epi32(_mm_add_epi32(a_high, b_high), 1));
      store(high + lw + j, _mm_sub_epi32(a_high, b_high));
    }
#endif
    for (; j < w / 2; ++j) {
      const std::int32_t a_low = (a[2 * j] + a[2 * j + 1]) >> 1;
      const std::int32_t a_high = a[2 * j] - a[2 * j + 1];
      const std::int32_t b_low = (b[2 * j] + b[2 * j + 1]) >> 1;
      const std::int32_t b_high = b[2 * j] - b[2 * j + 1];
      low[j] = (a_low + b_low) >> 1;
      high[j] = a_low - b_low;
      low[lw + j] = (a_high + b_high) >> 1;
      high[lw + j] = a_high - b_high;
    }
    if (w % 2 == 1) {
      low[lw - 1] = (a[w - 1] + b[w - 1]) >> 1;
      high[lw - 1] = a[w - 1] - b[w - 1];
    }
  }
  if (h % 2 == 1) {
    // The last row has no partner: only the row step, into low row lh-1.
    const std::int32_t* __restrict in = h == 1 ? scratch : row(data, h - 1);
    std::int32_t* __restrict low = row(data, lh - 1);
    for (int j = 0; j < w / 2; ++j) {
      const std::int32_t x = in[2 * j];
      const std::int32_t y = in[2 * j + 1];
      low[j] = (x + y) >> 1;
      low[lw + j] = x - y;
    }
    if (w % 2 == 1) low[lw - 1] = in[w - 1];
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

/// One inverse level of the `w` x `h` region: low row i from `low_rows`,
/// high row lh+i from `high_rows` (or, when it is the very row a pair
/// writes, from `last_high`), rows 2i and 2i+1 to `out`. Pair i writes no
/// row a later pair reads from `high_rows`: 2i+1 <= lh+i.
void inverse_level(const std::int32_t* low_rows, const std::int32_t* high_rows,
                   const std::int32_t* last_high, std::int32_t* out,
                   std::size_t stride, int w, int h) {
  const int lw = (w + 1) / 2;
  const int lh = (h + 1) / 2;
  const auto at = [stride](auto* plane, int y) {
    return plane + static_cast<std::size_t>(y) * stride;
  };
  for (int i = 0; i < h / 2; ++i) {
    const std::int32_t* __restrict low = at(low_rows, i);
    const std::int32_t* __restrict high =
        at(2 * i + 1 == lh + i ? last_high : high_rows, lh + i);
    std::int32_t* __restrict a = at(out, 2 * i);
    std::int32_t* __restrict b = at(out, 2 * i + 1);
    for (int j = 0; j < w / 2; ++j) {
      // Columns j and lw+j down the pair, then each row across.
      const std::int32_t b0 = wrap_sub(low[j], high[j] >> 1);
      const std::int32_t a0 = wrap_add(b0, high[j]);
      const std::int32_t b1 = wrap_sub(low[lw + j], high[lw + j] >> 1);
      const std::int32_t a1 = wrap_add(b1, high[lw + j]);
      const std::int32_t second_a = wrap_sub(a0, a1 >> 1);
      a[2 * j] = wrap_add(second_a, a1);
      a[2 * j + 1] = second_a;
      const std::int32_t second_b = wrap_sub(b0, b1 >> 1);
      b[2 * j] = wrap_add(second_b, b1);
      b[2 * j + 1] = second_b;
    }
    if (w % 2 == 1) {
      const std::int32_t second = wrap_sub(low[lw - 1], high[lw - 1] >> 1);
      a[w - 1] = wrap_add(second, high[lw - 1]);
      b[w - 1] = second;
    }
  }
  if (h % 2 == 1) {
    // The last low row has no partner: only the row step, into row h-1.
    const std::int32_t* __restrict low = at(low_rows, lh - 1);
    std::int32_t* __restrict last = at(out, h - 1);
    for (int j = 0; j < w / 2; ++j) {
      const std::int32_t second = wrap_sub(low[j], low[lw + j] >> 1);
      last[2 * j] = wrap_add(second, low[lw + j]);
      last[2 * j + 1] = second;
    }
    if (w % 2 == 1) last[w - 1] = low[lw - 1];
  }
}

/// Copy rows [y0, y1), columns [x0, x1) of `from` to `to` (same stride).
void copy_block(const std::int32_t* from, std::int32_t* to, std::size_t stride,
                int x0, int x1, int y0, int y1) {
  for (int y = y0; y < y1; ++y) {
    const std::size_t at = static_cast<std::size_t>(y) * stride +
                           static_cast<std::size_t>(x0);
    std::copy_n(from + at, x1 - x0, to + at);
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

void forward_haar_inplace(std::int32_t* data, int width, int height,
                          int levels, std::int32_t* scratch) {
  const auto stride = static_cast<std::size_t>(width);
  const auto regions = level_regions(width, height, levels);
  for (const auto& [w, h] : regions) forward_level(data, scratch, stride, w, h);
  // Each level's high rows lie in its own rows of the scratch: rows
  // [lh, h) of the region, below every coarser region.
  for (const auto& [w, h] : regions) {
    copy_block(scratch, data, stride, 0, w, (h + 1) / 2, h);
  }
}

void inverse_haar_inplace(std::int32_t* data, int width, int height,
                          int levels, std::int32_t* scratch) {
  const auto stride = static_cast<std::size_t>(width);
  const auto regions = level_regions(width, height, levels);
  // Level k (0 the finest) writes `data` for even k and the scratch for
  // odd k. A level that writes the scratch reads only `data`. One that
  // writes `data` reads its low rows from the scratch, where the coarser
  // level left their left part, and its high rows in place.
  for (std::size_t k = regions.size(); k-- > 0;) {
    const auto [w, h] = regions[k];
    const int lw = (w + 1) / 2;
    const int lh = (h + 1) / 2;
    if (k % 2 == 1) {
      inverse_level(data, data, data, scratch, stride, w, h);
      continue;
    }
    const bool coarsest = k + 1 == regions.size();
    copy_block(data, scratch, stride, coarsest ? 0 : lw, w, 0, lh);
    if (h % 2 == 0) copy_block(data, scratch, stride, 0, w, h - 1, h);
    inverse_level(scratch, data, scratch, data, stride, w, h);
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
