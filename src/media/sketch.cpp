#include "collabqos/media/sketch.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <span>
#include <vector>

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
template <std::size_t N, class Key>
std::array<std::uint32_t, N> histogram(std::span<const std::int32_t> values,
                                       Key key) {
  std::array<std::array<std::uint32_t, N>, 4> lanes{};
  const std::size_t size = values.size();
  std::size_t i = 0;
  for (; i + 4 <= size; i += 4) {
    ++lanes[0][key(values[i])];
    ++lanes[1][key(values[i + 1])];
    ++lanes[2][key(values[i + 2])];
    ++lanes[3][key(values[i + 3])];
  }
  for (; i < size; ++i) ++lanes[0][key(values[i])];
  for (std::size_t b = 0; b < N; ++b) {
    lanes[0][b] += lanes[1][b] + lanes[2][b] + lanes[3][b];
  }
  return lanes[0];
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
  const Image converted = image.channels() == 1 ? Image() : image.to_grayscale();
  const Image& gray = image.channels() == 1 ? image : converted;
  const int w = gray.width();
  const int h = gray.height();
  const std::uint8_t* pixels = gray.pixels().data();
  const auto width = static_cast<std::size_t>(w);

  // Sobel gradients in integers. |gx|, |gy| <= 1020, so g2 = gx^2 + gy^2
  // is exact; border pixels have g2 = 0. Rows of restrict pointers, so
  // the loop vectorises. g2 lives in the thread's scratch, whose stale
  // contents the border rows and columns are cleared of.
  const detail::ScratchLease scratch(image.pixels().size());
  const std::span<std::int32_t> g2(
      scratch->samples.get(width * static_cast<std::size_t>(h)),
      width * static_cast<std::size_t>(h));
  std::fill_n(g2.begin(), width, 0);
  std::fill_n(g2.end() - static_cast<std::ptrdiff_t>(width), width, 0);
  for (int y = 1; y + 1 < h; ++y) {
    const std::uint8_t* __restrict up =
        pixels + static_cast<std::size_t>(y - 1) * width;
    const std::uint8_t* __restrict mid = up + width;
    const std::uint8_t* __restrict down = mid + width;
    std::int32_t* __restrict out = g2.data() + static_cast<std::size_t>(y) * width;
    out[0] = 0;
    out[w - 1] = 0;
    for (int x = 1; x + 1 < w; ++x) {
      const int gx = (up[x + 1] + 2 * mid[x + 1] + down[x + 1]) -
                     (up[x - 1] + 2 * mid[x - 1] + down[x - 1]);
      const int gy = (down[x - 1] + 2 * down[x] + down[x + 1]) -
                     (up[x - 1] + 2 * up[x] + up[x + 1]);
      out[x] = gx * gx + gy * gy;
    }
  }

  // Adaptive threshold at the requested quantile of the magnitude
  // hypot(gx, gy). hypot rises strictly from one integer g2 to the next,
  // so the rank-th magnitude lies in the class t2 of the rank-th g2. It is
  // found by counting. g2 <= 2 * 1020^2 < 2^21: a g2 below 2^11 is
  // counted by value, a larger one by its bucket g2 >> 11. Only when the
  // rank lands in a bucket above 0 does a second count, of that bucket's
  // low 11 bits, find the value.
  const auto rank = static_cast<std::size_t>(
      params.threshold_quantile * static_cast<double>(g2.size() - 1));
  const auto counts = histogram<kBuckets + (kBuckets >> 1)>(
      g2, [](std::int32_t v) {
        const auto value = static_cast<std::size_t>(v);
        return value < kBuckets ? value : kBuckets + (value >> kLowBits);
      });
  std::size_t below = 0;  // pixels with g2 < t2, once t2 is found
  std::size_t key = 0;
  while (below + counts[key] <= rank) below += counts[key++];
  auto t2 = static_cast<std::int32_t>(key);
  if (key >= kBuckets) {
    const std::size_t bucket = key - kBuckets;
    // Pixels outside the bucket count in the extra last key.
    const auto fine = histogram<kBuckets + 1>(g2, [bucket](std::int32_t v) {
      const auto value = static_cast<std::size_t>(v);
      return (value >> kLowBits) == bucket ? value & kLowMask : kBuckets;
    });
    std::size_t low = 0;
    while (below + fine[low] <= rank) below += fine[low++];
    t2 = static_cast<std::int32_t>((bucket << kLowBits) | low);
  }
  const auto gradient = [&](std::size_t i) {
    const std::uint8_t* up = pixels + i - width;
    const std::uint8_t* mid = pixels + i;
    const std::uint8_t* down = pixels + i + width;
    const int gx = (up[1] + 2 * mid[1] + down[1]) - (up[-1] + 2 * mid[-1] + down[-1]);
    const int gy = (down[-1] + 2 * down[0] + down[1]) - (up[-1] + 2 * up[0] + up[1]);
    return std::pair{gx, gy};
  };

  // Decimated edge map: a cell is an edge if any member pixel reaches
  // the threshold (max-pool keeps thin structures visible). A pixel is an
  // edge iff hypot >= max(1, rank-th hypot): g2 > t2 decides all but the
  // class t2 itself, and for t2 = 0 that class holds no edges.
  const int dw = (w + params.decimation - 1) / params.decimation;
  const int dh = (h + params.decimation - 1) / params.decimation;
  std::vector<std::uint8_t> edges(static_cast<std::size_t>(dw) * dh, 0);
  const auto mark = [&](std::size_t i) {
    const int y = static_cast<int>(i / width);
    const int x = static_cast<int>(i % width);
    edges[static_cast<std::size_t>(y / params.decimation) * dw +
          static_cast<std::size_t>(x / params.decimation)] = 1;
  };
  // A cell holds such a pixel iff its largest g2 exceeds t2: the maxima
  // run down the columns of a cell row first, then across each cell.
  std::vector<std::int32_t> column_max(width);
  for (int cy = 0; cy < dh; ++cy) {
    const int y0 = cy * params.decimation;
    const int y1 = std::min(h, y0 + params.decimation);
    std::int32_t* __restrict top = column_max.data();
    std::copy_n(g2.data() + static_cast<std::size_t>(y0) * width, width, top);
    for (int y = y0 + 1; y < y1; ++y) {
      const std::int32_t* __restrict row =
          g2.data() + static_cast<std::size_t>(y) * width;
      for (std::size_t x = 0; x < width; ++x) top[x] = std::max(top[x], row[x]);
    }
    std::uint8_t* cells = edges.data() + static_cast<std::size_t>(cy) * dw;
    for (int cx = 0; cx < dw; ++cx) {
      const int x0 = cx * params.decimation;
      const int x1 = std::min(w, x0 + params.decimation);
      cells[cx] = static_cast<std::uint8_t>(
          *std::max_element(top + x0, top + x1) > t2);
    }
  }
  // Within the class t2, hypot may differ in the last bit between (gx,
  // gy) pairs, so the pixels of that class are ranked by it. They share
  // a handful of pairs (the ways to write t2 as a sum of two squares), so
  // hypot is computed once per pair and the rank found by counting.
  if (t2 > 0) {
    struct Pair {
      std::pair<int, int> g;
      double magnitude;
      std::size_t pixels;
    };
    std::vector<Pair> pairs;
    std::vector<std::pair<std::size_t, std::size_t>> ties;  // pixel, pair
    for (auto it = std::find(g2.begin(), g2.end(), t2); it != g2.end();
         it = std::find(it + 1, g2.end(), t2)) {
      const auto i = static_cast<std::size_t>(it - g2.begin());
      const std::pair<int, int> g = gradient(i);
      std::size_t p = 0;
      while (p < pairs.size() && pairs[p].g != g) ++p;
      if (p == pairs.size()) {
        pairs.push_back({g,
                         std::hypot(static_cast<double>(g.first),
                                    static_cast<double>(g.second)),
                         0});
      }
      ++pairs[p].pixels;
      ties.emplace_back(i, p);
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
    for (const auto& [i, p] : ties) {
      if (pairs[p].magnitude >= tie_threshold) mark(i);
    }
  }

  // Run-length code the binary map (alternating runs, starts with 0-run).
  BitWriter bits;
  std::uint64_t run = 0;
  std::uint8_t current = 0;
  for (const std::uint8_t edge : edges) {
    if (edge == current) {
      ++run;
    } else {
      bits.put_run(run);
      current = edge;
      run = 1;
    }
  }
  bits.put_run(run);

  Sketch sketch;
  sketch.width = dw;
  sketch.height = dh;
  sketch.source_width = w;
  sketch.source_height = h;
  sketch.rle = bits.finish();
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
