#include "collabqos/media/sketch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "collabqos/media/bitio.hpp"

namespace collabqos::media {

namespace {
constexpr std::uint8_t kSketchMagic = 0x5C;
}

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
  // is exact; border pixels keep g2 = 0.
  const auto sobel = [&](std::size_t i) {
    const std::uint8_t* up = pixels + i - width;
    const std::uint8_t* mid = pixels + i;
    const std::uint8_t* down = pixels + i + width;
    const int gx = (up[1] + 2 * mid[1] + down[1]) - (up[-1] + 2 * mid[-1] + down[-1]);
    const int gy = (down[-1] + 2 * down[0] + down[1]) - (up[-1] + 2 * up[0] + up[1]);
    return std::pair{gx, gy};
  };
  std::vector<std::int32_t> g2(width * static_cast<std::size_t>(h), 0);
  for (int y = 1; y + 1 < h; ++y) {
    for (int x = 1; x + 1 < w; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * width + x;
      const auto [gx, gy] = sobel(i);
      g2[i] = gx * gx + gy * gy;
    }
  }

  // Adaptive threshold at the requested quantile of the magnitude
  // hypot(gx, gy). hypot rises strictly from one integer g2 to the next,
  // so the rank-th magnitude lies in the class t2 of the rank-th g2. It is
  // found by counting: g2 <= 2 * 1020^2 < 2^21, so a histogram of g2 >> 11
  // picks the bucket and a histogram of the bucket's low 11 bits the value.
  const auto rank = static_cast<std::size_t>(
      params.threshold_quantile * static_cast<double>(g2.size() - 1));
  constexpr int kLowBits = 11;
  std::vector<std::size_t> counts(std::size_t{1} << kLowBits, 0);
  for (const std::int32_t v : g2) ++counts[static_cast<std::size_t>(v >> kLowBits)];
  std::size_t below = 0;  // pixels with g2 < t2, once t2 is found
  std::size_t bucket = 0;
  while (below + counts[bucket] <= rank) below += counts[bucket++];
  std::fill(counts.begin(), counts.end(), 0);
  for (const std::int32_t v : g2) {
    if (static_cast<std::size_t>(v >> kLowBits) == bucket) {
      ++counts[static_cast<std::size_t>(v) & ((std::size_t{1} << kLowBits) - 1)];
    }
  }
  std::size_t low = 0;
  while (below + counts[low] <= rank) below += counts[low++];
  const auto t2 = static_cast<std::int32_t>((bucket << kLowBits) | low);
  const auto magnitude = [&](std::size_t i) {
    const auto [gx, gy] = sobel(i);
    return std::hypot(static_cast<double>(gx), static_cast<double>(gy));
  };
  // Within a class hypot may differ in the last bit between (gx, gy)
  // pairs, so it is computed for that class alone and ranked there. Edge
  // iff hypot >= max(1, rank-th hypot): for t2 = 0 that is g2 > 0.
  double tie_threshold = 1.0;
  if (t2 > 0) {
    std::vector<double> ties;
    for (std::size_t i = 0; i < g2.size(); ++i) {
      if (g2[i] == t2) ties.push_back(magnitude(i));
    }
    const auto tie_rank = static_cast<std::ptrdiff_t>(rank - below);
    std::nth_element(ties.begin(), ties.begin() + tie_rank, ties.end());
    tie_threshold = ties[static_cast<std::size_t>(tie_rank)];
  }
  const auto is_edge = [&](std::size_t i) {
    return g2[i] > t2 || (t2 > 0 && g2[i] == t2 && magnitude(i) >= tie_threshold);
  };

  // Decimated edge map: a cell is an edge if any member pixel reaches
  // the threshold (max-pool keeps thin structures visible).
  const int dw = (w + params.decimation - 1) / params.decimation;
  const int dh = (h + params.decimation - 1) / params.decimation;
  std::vector<std::uint8_t> edges(static_cast<std::size_t>(dw) * dh, 0);
  for (int y = 0; y < h; ++y) {
    std::uint8_t* cells =
        edges.data() + static_cast<std::size_t>(y / params.decimation) * dw;
    const std::size_t row = static_cast<std::size_t>(y) * width;
    for (int x = 0; x < w; ++x) {
      if (is_edge(row + x)) cells[x / params.decimation] = 1;
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
