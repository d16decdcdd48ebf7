#include "collabqos/media/sketch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <span>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "collabqos/media/bitio.hpp"
#include "scratch.hpp"

namespace collabqos::media {

namespace {
constexpr std::uint8_t kSketchMagic = 0x5C;

constexpr int kLowBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kLowBits;
constexpr std::size_t kLowMask = kBuckets - 1;

/// Histogram of key(v) over `values` (keys below N), counted in four
/// interleaved tables: most pixels share one key, and with one table
/// every increment would wait for the one before it.
template <std::size_t N>
struct Histogram {
  std::array<std::array<std::uint32_t, N>, 4> lanes{};

  template <class Key>
  void add(const std::int32_t* values, std::size_t size, Key key) {
    std::size_t i = 0;
    for (; i + 4 <= size; i += 4) {
      ++lanes[0][key(values[i])];
      ++lanes[1][key(values[i + 1])];
      ++lanes[2][key(values[i + 2])];
      ++lanes[3][key(values[i + 3])];
    }
    for (; i < size; ++i) ++lanes[0][key(values[i])];
  }
  [[nodiscard]] std::array<std::uint32_t, N> counts() const {
    std::array<std::uint32_t, N> total = lanes[0];
    for (std::size_t b = 0; b < N; ++b) {
      total[b] += lanes[1][b] + lanes[2][b] + lanes[3][b];
    }
    return total;
  }
};

/// The coarse key of a g2: below 2^11 by value, above it by its bucket
/// g2 >> 11.
std::size_t coarse_key(std::int32_t v) {
  const auto value = static_cast<std::size_t>(v);
  return value < kBuckets ? value : kBuckets + (value >> kLowBits);
}

/// The grayscale rows of an image: its own for a gray image, and for a
/// colour one converted by Image::gray_row a row at a time as they are
/// first asked for, into `plane`.
class GrayRows {
 public:
  GrayRows(const Image& image, std::uint8_t* plane)
      : image_(image), plane_(plane),
        width_(static_cast<std::size_t>(image.width())) {}

  const std::uint8_t* row(int y) {
    const auto at = static_cast<std::size_t>(y) * width_;
    if (image_.channels() == 1) return image_.pixels().data() + at;
    for (; converted_ <= y; ++converted_) {
      image_.gray_row(converted_,
                      plane_ + static_cast<std::size_t>(converted_) * width_);
    }
    return plane_ + at;
  }

 private:
  const Image& image_;
  std::uint8_t* plane_;
  std::size_t width_;
  int converted_ = 0;  ///< rows [0, converted_) are in plane_
};

/// The first of [at, end) equal to `value`, or end.
const std::int32_t* find_value(const std::int32_t* at, const std::int32_t* end,
                               std::int32_t value) {
#if defined(__SSE2__)
  const __m128i wanted = _mm_set1_epi32(value);
  for (; end - at >= 4; at += 4) {
    const __m128i four = _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
    const int hits = _mm_movemask_epi8(_mm_cmpeq_epi32(four, wanted));
    if (hits != 0) return at + std::countr_zero(static_cast<unsigned>(hits)) / 4;
  }
#endif
  return std::find(at, end, value);
}

/// Sobel gx, gy at column x of the rows up, mid, down.
std::pair<int, int> sobel(const std::uint8_t* up, const std::uint8_t* mid,
                          const std::uint8_t* down, int x) {
  const int gx = (up[x + 1] + 2 * mid[x + 1] + down[x + 1]) -
                 (up[x - 1] + 2 * mid[x - 1] + down[x - 1]);
  const int gy = (down[x - 1] + 2 * down[x] + down[x + 1]) -
                 (up[x - 1] + 2 * up[x] + up[x + 1]);
  return {gx, gy};
}

}  // namespace

serde::Bytes Sketch::encode() const {
  serde::Writer w(rle.size() + description.size() + 24);
  w.u8(kSketchMagic);
  w.varint(static_cast<std::uint64_t>(width));
  w.varint(static_cast<std::uint64_t>(height));
  w.varint(static_cast<std::uint64_t>(source_width));
  w.varint(static_cast<std::uint64_t>(source_height));
  w.string(description);
  w.blob(rle);
  return std::move(w).take();
}

Result<Sketch> Sketch::decode(std::span<const std::uint8_t> bytes) {
  serde::Reader r(bytes);
  if (r.u8() != kSketchMagic) r.fail(Errc::malformed, "not a sketch");
  Sketch s;
  const std::uint64_t width = r.varint();
  const std::uint64_t height = r.varint();
  const std::uint64_t source_width = r.varint();
  const std::uint64_t source_height = r.varint();
  if (!r.ok()) return r.error();
  // The sketch and the image it abstracts obey the same extent bounds, so
  // every dimension narrows to int exactly.
  if (!plausible_extent(width, height)) {
    return Error{Errc::malformed, "implausible sketch dimensions"};
  }
  if (!plausible_extent(source_width, source_height)) {
    return Error{Errc::malformed, "implausible sketch source dimensions"};
  }
  s.width = static_cast<int>(width);
  s.height = static_cast<int>(height);
  s.source_width = static_cast<int>(source_width);
  s.source_height = static_cast<int>(source_height);
  s.description = r.view_string();
  s.rle = r.blob();
  if (!r.ok()) return r.error();
  return s;
}

Sketch extract_sketch(const Image& image, std::string description,
                      SketchParams params) {
  assert(params.decimation >= 1);
  assert(params.threshold_quantile >= 0.0 && params.threshold_quantile <= 1.0);
  const int w = image.width();
  const int h = image.height();
  const auto width = static_cast<std::size_t>(w);
  const int d = params.decimation;
  const int dw = (w + d - 1) / d;
  const int dh = (h + d - 1) / d;

  // One pass of integer Sobel gradients over the gray rows. |gx|, |gy| <=
  // 1020, so g2 = gx^2 + gy^2 is exact; border pixels have g2 = 0. The
  // pass also counts the coarse histogram and each cell's largest g2,
  // down the columns of a cell row first and then across each cell. g2,
  // the column maxima and a colour image's gray rows live in the thread's
  // scratch.
  const detail::ScratchLease scratch(image.pixels().size());
  std::int32_t* const g2 = scratch->samples.get(width * static_cast<std::size_t>(h));
  std::int32_t* const column_max = scratch->haar_plane.get(width);
  GrayRows gray(image, image.channels() == 1
                            ? nullptr
                            : scratch->rows.get(width * static_cast<std::size_t>(h)));
  Histogram<kBuckets + (kBuckets >> 1)> coarse;
  const std::size_t cell_count = static_cast<std::size_t>(dw) * dh;
  std::uint32_t* const cell_max = scratch->magnitudes.get(cell_count);
  const std::uint8_t* up = nullptr;
  const std::uint8_t* mid = gray.row(0);
  for (int y = 0; y < h; ++y) {
    std::int32_t* __restrict out = g2 + static_cast<std::size_t>(y) * width;
    const std::uint8_t* down = y + 1 < h ? gray.row(y + 1) : nullptr;
    if (y == 0 || y + 1 == h) {
      std::fill_n(out, width, 0);
    } else {
      const std::uint8_t* __restrict u = up;
      const std::uint8_t* __restrict m = mid;
      const std::uint8_t* __restrict b = down;
      out[0] = 0;
      out[w - 1] = 0;
      for (int x = 1; x + 1 < w; ++x) {
        const auto [gx, gy] = sobel(u, m, b, x);
        out[x] = gx * gx + gy * gy;
      }
    }
    coarse.add(out, width, coarse_key);
    std::int32_t* __restrict top = column_max;
    if (y % d == 0) {
      std::copy_n(out, width, top);
    } else {
      for (std::size_t x = 0; x < width; ++x) top[x] = std::max(top[x], out[x]);
    }
    if (y % d == d - 1 || y + 1 == h) {
      std::uint32_t* cells = cell_max + static_cast<std::size_t>(y / d) * dw;
      for (int cx = 0; cx < dw; ++cx) {
        std::int32_t largest = 0;  // g2 >= 0
        for (int x = cx * d; x < std::min(w, cx * d + d); ++x) {
          largest = std::max(largest, top[x]);
        }
        cells[cx] = static_cast<std::uint32_t>(largest);
      }
    }
    up = mid;
    mid = down;
  }

  // Adaptive threshold at the requested quantile of the magnitude
  // hypot(gx, gy). hypot rises strictly from one integer g2 to the next,
  // so the rank-th magnitude lies in the class t2 of the rank-th g2. It is
  // found by counting. g2 <= 2 * 1020^2 < 2^21: a g2 below 2^11 is
  // counted by value, a larger one by its bucket g2 >> 11. Only when the
  // rank lands in a bucket above 0 does a second count, of that bucket's
  // low 11 bits, find the value.
  const std::size_t pixels = width * static_cast<std::size_t>(h);
  const auto rank = static_cast<std::size_t>(
      params.threshold_quantile * static_cast<double>(pixels - 1));
  const auto counts = coarse.counts();
  std::size_t below = 0;  // pixels with g2 < t2, once t2 is found
  std::size_t key = 0;
  while (below + counts[key] <= rank) below += counts[key++];
  auto t2 = static_cast<std::int32_t>(key);
  if (key >= kBuckets) {
    const std::size_t bucket = key - kBuckets;
    // Pixels outside the bucket count in the extra last key.
    Histogram<kBuckets + 1> fine;
    fine.add(g2, pixels, [bucket](std::int32_t v) {
      const auto value = static_cast<std::size_t>(v);
      return (value >> kLowBits) == bucket ? value & kLowMask : kBuckets;
    });
    const auto fine_counts = fine.counts();
    std::size_t low = 0;
    while (below + fine_counts[low] <= rank) below += fine_counts[low++];
    t2 = static_cast<std::int32_t>((bucket << kLowBits) | low);
  }

  // Decimated edge map: a cell is an edge if any member pixel reaches
  // the threshold (max-pool keeps thin structures visible). A pixel is an
  // edge iff hypot >= max(1, rank-th hypot): g2 > t2 decides all but the
  // class t2 itself, and for t2 = 0 that class holds no edges. A cell
  // holds such a pixel iff its largest g2 exceeds t2.
  const auto threshold = static_cast<std::uint32_t>(t2);
  std::uint8_t* const edges = scratch->signs.get(cell_count);
  for (std::size_t c = 0; c < cell_count; ++c) {
    edges[c] = static_cast<std::uint8_t>(cell_max[c] > threshold);
  }
  // Within the class t2, hypot may differ in the last bit between (gx,
  // gy) pairs, so the pixels of that class are ranked by it. They share
  // a handful of pairs (the ways to write t2 as a sum of two squares), so
  // hypot is computed once per pair and the rank found by counting. The
  // rank needs every pixel of the class, but marking only those of cells
  // whose largest g2 is t2: the others are edges already.
  if (t2 > 0) {
    struct Pair {
      std::pair<int, int> g;
      double magnitude;
      std::size_t pixels;
    };
    std::vector<Pair> pairs;
    std::vector<std::pair<std::size_t, std::size_t>> ties;  // cell, pair
    for (int y = 1; y + 1 < h; ++y) {
      const std::int32_t* row = g2 + static_cast<std::size_t>(y) * width;
      const std::int32_t* end = row + w;
      const std::int32_t* at = find_value(row, end, t2);
      if (at == end) continue;
      const std::uint8_t* up_row = gray.row(y - 1);
      const std::uint8_t* mid_row = gray.row(y);
      const std::uint8_t* down_row = gray.row(y + 1);
      const std::uint32_t* cells = cell_max + static_cast<std::size_t>(y / d) * dw;
      for (; at != end; at = find_value(at + 1, end, t2)) {
        const auto x = static_cast<int>(at - row);
        const std::pair<int, int> g = sobel(up_row, mid_row, down_row, x);
        std::size_t p = 0;
        while (p < pairs.size() && pairs[p].g != g) ++p;
        if (p == pairs.size()) {
          pairs.push_back({g,
                           std::hypot(static_cast<double>(g.first),
                                      static_cast<double>(g.second)),
                           0});
        }
        ++pairs[p].pixels;
        if (cells[x / d] == threshold) {
          ties.emplace_back(static_cast<std::size_t>(y / d) * dw +
                                static_cast<std::size_t>(x / d),
                            p);
        }
      }
    }
    std::vector<Pair> ranked = pairs;
    std::sort(ranked.begin(), ranked.end(), [](const Pair& a, const Pair& b) {
      return a.magnitude < b.magnitude;
    });
    // The (rank - below)-th smallest magnitude among the class's pixels.
    std::size_t seen = 0;
    double tie_threshold = ranked.back().magnitude;
    for (const Pair& pair : ranked) {
      seen += pair.pixels;
      if (seen > rank - below) {
        tie_threshold = pair.magnitude;
        break;
      }
    }
    for (const auto& [cell, p] : ties) {
      if (pairs[p].magnitude >= tie_threshold) edges[cell] = 1;
    }
  }

  // Run-length code the binary map (alternating runs, starts with 0-run).
  // A run r takes 2 * bit_width(r + 1) - 1 <= 2r + 1 bits, and the runs
  // sum to the cells, so the code takes at most 3 * cells + 1 bits.
  std::vector<std::uint8_t> rle((3 * cell_count + 1) / 8 + 1 + 8);
  BitSink bits(rle.data());
  std::uint64_t run = 0;
  std::uint8_t current = 0;
  for (std::size_t c = 0; c < cell_count; ++c) {
    if (edges[c] == current) {
      ++run;
    } else {
      bits.put_run(run);
      current = edges[c];
      run = 1;
    }
  }
  bits.put_run(run);
  rle.resize(bits.size());

  Sketch sketch;
  sketch.width = dw;
  sketch.height = dh;
  sketch.source_width = w;
  sketch.source_height = h;
  sketch.rle = std::move(rle);
  sketch.description = std::move(description);
  return sketch;
}

Result<Image> render_sketch(const Sketch& sketch) {
  if (sketch.width <= 0 || sketch.height <= 0) {
    return Error{Errc::malformed, "empty sketch"};
  }
  const std::size_t total =
      static_cast<std::size_t>(sketch.width) * sketch.height;
  if (total >= kMaxDecodedSamples) {
    return Error{Errc::malformed, "implausible sketch dimensions"};
  }
  Image image(sketch.width, sketch.height, 1);
  BitReader bits(sketch.rle);
  std::size_t cursor = 0;
  std::uint8_t current = 0;
  while (cursor < total) {
    const std::uint64_t run = bits.get_run();
    if (!bits.ok()) return Error{Errc::malformed, "sketch truncated"};
    if (run > total - cursor) {
      return Error{Errc::malformed, "sketch run overflow"};
    }
    if (current != 0) {
      std::fill_n(image.pixels().begin() + static_cast<std::ptrdiff_t>(cursor),
                  run, std::uint8_t{255});
    }
    cursor += run;
    current = current == 0 ? 1 : 0;
  }
  return image;
}

}  // namespace collabqos::media
