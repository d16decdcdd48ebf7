// The progressive codec and its bit I/O as they were before the word-level
// kernels: a BitWriter that appends through vector::insert, a BitReader
// that reads a gamma code and its sign as two calls, a decoder that builds
// a table of a word's zero bits for every word a significance run enters,
// and a scan scatter through a per-position callback. It stays here only
// as the reference that encode_progressive and decode_progressive_prefix
// must match byte for byte, pixel for pixel and verdict for verdict.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "collabqos/media/codec.hpp"
#include "collabqos/media/haar.hpp"
#include "collabqos/media/image.hpp"
#include "collabqos/serde/wire.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::media::reference {

/// Coefficient plane for one channel: row-major int32, same dimensions as
/// the source, holding the multi-level transform in place (LL in the
/// top-left corner after `levels` applications).
struct CoefficientPlane {
  int width = 0;
  int height = 0;
  int levels = 0;
  std::vector<std::int32_t> data;

  [[nodiscard]] std::int32_t& at(int x, int y) {
    return data[static_cast<std::size_t>(y) * width + x];
  }
  [[nodiscard]] std::int32_t at(int x, int y) const {
    return data[static_cast<std::size_t>(y) * width + x];
  }
};

class BitWriter {
 public:
  void put(bool bit) { put_bits(bit ? 1u : 0u, 1); }
  void put_bits(std::uint64_t value, int count) {
    assert(count >= 0 && count <= 64);
    assert(count == 64 || value >> count == 0);
    if (count < 64 - used_) {
      acc_ = (acc_ << count) | value;
      used_ += count;
    } else {
      put_bits_slow(value, count);
    }
  }
  void put_gamma(std::uint64_t n) {
    assert(n >= 1);
    const int width = 64 - std::countl_zero(n);
    if (width <= 32) {
      put_bits(n, 2 * width - 1);
    } else {
      put_bits(0, width - 1);
      put_bits(n, width);
    }
  }
  void put_run(std::uint64_t run) { put_gamma(run + 1); }

  [[nodiscard]] std::vector<std::uint8_t> finish() {
    int pending = used_;
    while (pending >= 8) {
      pending -= 8;
      buffer_.push_back(static_cast<std::uint8_t>(acc_ >> pending));
    }
    if (pending > 0) {
      buffer_.push_back(static_cast<std::uint8_t>(acc_ << (8 - pending)));
    }
    acc_ = 0;
    used_ = 0;
    return std::move(buffer_);
  }

 private:
  void put_bits_slow(std::uint64_t value, int count) {
    assert(count <= 64 && count >= 64 - used_);
    const int rest = count - (64 - used_);
    const std::uint64_t word =
        (used_ == 0 ? 0 : acc_ << (64 - used_)) | (value >> rest);
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<std::uint8_t>(word >> (56 - 8 * i));
    }
    buffer_.insert(buffer_.end(), bytes, bytes + 8);
    acc_ = rest == 0 ? 0 : value & (~std::uint64_t{0} >> (64 - rest));
    used_ = rest;
  }

  std::vector<std::uint8_t> buffer_;
  std::uint64_t acc_ = 0;
  int used_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] bool get() { return get_bits(1) != 0; }
  [[nodiscard]] std::uint64_t get_bits(int count) {
    assert(count >= 0 && count <= 56);
    if (avail_ < count) {
      refill();
      if (avail_ < count) return fail();
    }
    if (count == 0) return 0;
    const std::uint64_t value = acc_ >> (64 - count);
    acc_ <<= count;
    avail_ -= count;
    return value;
  }
  [[nodiscard]] std::uint64_t get_gamma() {
    if (avail_ < 32) refill();
    const int zeros = std::countl_zero(acc_);
    if (2 * zeros + 1 > avail_) return get_gamma_slow();
    acc_ <<= zeros;
    const std::uint64_t value = acc_ >> (63 - zeros);
    acc_ = acc_ << zeros << 1;
    avail_ -= 2 * zeros + 1;
    return value;
  }
  [[nodiscard]] std::uint64_t get_run() { return get_gamma() - 1; }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  void refill() noexcept {
    if (data_.size() - next_ < 8) return refill_tail();
    std::uint64_t word = 0;
    std::memcpy(&word, data_.data() + next_, 8);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    acc_ |= word >> avail_;
    const int whole = (63 - avail_) >> 3;
    next_ += static_cast<std::size_t>(whole);
    avail_ += 8 * whole;
  }
  void refill_tail() noexcept {
    while (avail_ <= 56 && next_ < data_.size()) {
      acc_ |= static_cast<std::uint64_t>(data_[next_++]) << (56 - avail_);
      avail_ += 8;
    }
  }
  std::uint64_t get_gamma_slow() {
    int zeros = 0;
    while (!get()) {
      if (!ok_) return 0;
      if (++zeros > 63) return fail();
    }
    std::uint64_t value = 1;
    for (int left = zeros; left > 0;) {
      const int chunk = std::min(left, 32);
      value = (value << chunk) | get_bits(chunk);
      left -= chunk;
    }
    return ok_ ? value : 0;
  }
  std::uint64_t fail() noexcept {
    ok_ = false;
    acc_ = 0;
    avail_ = 0;
    next_ = data_.size();
    return 0;
  }

  std::span<const std::uint8_t> data_;
  std::size_t next_ = 0;
  std::uint64_t acc_ = 0;
  int avail_ = 0;
  bool ok_ = true;
};

namespace detail {

// ---- Haar pyramid ---------------------------------------------------------

inline void forward_rows(const std::int32_t* src, std::size_t src_stride,
                         std::int32_t* dst, std::size_t dst_stride, int n,
                         int rows) {
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

inline void forward_columns(const std::int32_t* src, std::size_t src_stride,
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

inline std::int32_t wrap_add(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}
inline std::int32_t wrap_sub(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}

inline void inverse_columns(const std::int32_t* src, std::size_t src_stride,
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

inline void inverse_rows(const std::int32_t* src, std::size_t src_stride,
                         std::int32_t* dst, std::size_t dst_stride, int n,
                         int rows) {
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

inline std::vector<std::pair<int, int>> level_regions(int width, int height,
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

inline void forward_haar_inplace(CoefficientPlane& plane) {
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

inline void inverse_haar_inplace(CoefficientPlane& coefficients) {
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

inline std::vector<SubbandRect> subband_rects(int width, int height,
                                              int levels) {
  std::vector<std::pair<int, int>> sizes = level_regions(width, height, levels);
  const int effective_levels = static_cast<int>(sizes.size());
  sizes.emplace_back(sizes.empty() ? std::pair{width, height}
                                   : std::pair{(sizes.back().first + 1) / 2,
                                               (sizes.back().second + 1) / 2});
  std::vector<SubbandRect> rects;
  rects.reserve(1 + 3 * static_cast<std::size_t>(effective_levels));
  const auto [llw, llh] = sizes[static_cast<std::size_t>(effective_levels)];
  rects.push_back({0, 0, llw, llh});
  for (int level = effective_levels; level >= 1; --level) {
    const auto [pw, ph] = sizes[static_cast<std::size_t>(level - 1)];
    const auto [lw, lh] = sizes[static_cast<std::size_t>(level)];
    rects.push_back({lw, 0, pw, lh});
    rects.push_back({0, lh, lw, ph});
    rects.push_back({lw, lh, pw, ph});
  }
  return rects;
}

// ---- Codec ----------------------------------------------------------------

constexpr std::uint8_t kHeaderMagic = 0xC1;

struct CoefficientSet {
  std::vector<std::uint32_t> magnitudes;
  std::vector<std::uint8_t> signs;
  int top_plane = 0;
};

inline std::vector<SubbandRect> scan_rects(int width, int height, int levels,
                                           bool raster) {
  if (raster) return {SubbandRect{0, 0, width, height}};
  return subband_rects(width, height, levels);
}

template <class F>
void for_each_in_scan(const std::vector<SubbandRect>& rects, int width, F&& f) {
  std::size_t k = 0;
  for (const SubbandRect& r : rects) {
    for (int y = r.y0; y < r.y1; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * width;
      for (int x = r.x0; x < r.x1; ++x) f(k++, row + static_cast<std::size_t>(x));
    }
  }
}

inline void ycocg_forward(std::int32_t& r, std::int32_t& g,
                          std::int32_t& b) noexcept {
  const std::int32_t co = r - b;
  const std::int32_t t = b + (co >> 1);
  const std::int32_t cg = g - t;
  const std::int32_t y = t + (cg >> 1);
  r = y;
  g = co;
  b = cg;
}

inline void ycocg_inverse(std::int32_t& y, std::int32_t& co,
                          std::int32_t& cg) noexcept {
  const auto u = [](std::int32_t v) { return static_cast<std::uint32_t>(v); };
  const std::uint32_t t = u(y) - u(cg >> 1);
  const std::uint32_t g = u(cg) + t;
  const std::uint32_t b = t - u(co >> 1);
  const std::uint32_t r = b + u(co);
  y = static_cast<std::int32_t>(r);
  co = static_cast<std::int32_t>(g);
  cg = static_cast<std::int32_t>(b);
}

inline std::vector<CoefficientPlane> build_planes(const Image& image,
                                                  int levels, bool ycocg) {
  const int channels = image.channels();
  const std::size_t pixels = image.pixel_count();
  std::vector<CoefficientPlane> planes(static_cast<std::size_t>(channels));
  for (CoefficientPlane& plane : planes) {
    plane.width = image.width();
    plane.height = image.height();
    plane.levels = levels;
    plane.data.resize(pixels);
  }
  const std::uint8_t* src = image.pixels().data();
  if (channels == 3) {
    for (std::size_t p = 0; p < pixels; ++p) {
      std::int32_t r = src[p * 3];
      std::int32_t g = src[p * 3 + 1];
      std::int32_t b = src[p * 3 + 2];
      if (ycocg) ycocg_forward(r, g, b);
      planes[0].data[p] = r;
      planes[1].data[p] = g;
      planes[2].data[p] = b;
    }
  } else {
    std::copy_n(src, pixels, planes[0].data.begin());
  }
  for (CoefficientPlane& plane : planes) forward_haar_inplace(plane);
  return planes;
}

inline CoefficientSet flatten(const Image& image, const CodecParams& params,
                              bool ycocg) {
  const std::vector<CoefficientPlane> planes =
      build_planes(image, params.levels, ycocg);
  const auto rects =
      scan_rects(image.width(), image.height(), params.levels,
                 params.scan == CodecParams::Scan::raster);
  const std::size_t per_channel = image.pixel_count();
  CoefficientSet set;
  set.magnitudes.resize(per_channel * planes.size());
  set.signs.resize(set.magnitudes.size());
  std::uint32_t all_bits = 0;
  for (std::size_t c = 0; c < planes.size(); ++c) {
    const std::int32_t* data = planes[c].data.data();
    std::uint32_t* magnitudes = set.magnitudes.data() + c * per_channel;
    std::uint8_t* signs = set.signs.data() + c * per_channel;
    for_each_in_scan(rects, image.width(), [&](std::size_t k, std::size_t i) {
      const std::int32_t value = data[i];
      const auto magnitude =
          static_cast<std::uint32_t>(value < 0 ? -value : value);
      magnitudes[k] = magnitude;
      signs[k] = value < 0 ? 1 : 0;
      all_bits |= magnitude;
    });
  }
  set.top_plane = all_bits > 0 ? 32 - std::countl_zero(all_bits) - 1 : 0;
  return set;
}

using Pass = std::vector<std::uint8_t>;
constexpr int kBitBatch = 56;
using Bitmap = std::vector<std::uint64_t>;

inline std::vector<Pass> encode_passes(const CoefficientSet& set) {
  const std::uint32_t* magnitudes = set.magnitudes.data();
  const std::size_t n = set.magnitudes.size();
  const std::size_t words = (n + 63) / 64;
  const auto rows = static_cast<std::size_t>(set.top_plane) + 2;
  Bitmap fresh(rows * words, 0);
  for (std::size_t i = 0; i < n; ++i) {
    fresh[static_cast<std::size_t>(std::bit_width(magnitudes[i])) * words +
          i / 64] |= std::uint64_t{1} << (i % 64);
  }

  Bitmap significant(words, 0);
  std::vector<Pass> passes;
  for (int plane = set.top_plane; plane >= 0; --plane) {
    const std::uint64_t* newly =
        fresh.data() + (static_cast<std::size_t>(plane) + 1) * words;
    BitWriter significance;
    std::size_t below = 0;
    std::size_t run_start = 0;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = newly[w]; bits != 0; bits &= bits - 1) {
        const int j = std::countr_zero(bits);
        const std::size_t index = w * 64 + static_cast<std::size_t>(j);
        const std::size_t rank =
            index - below -
            static_cast<std::size_t>(std::popcount(
                significant[w] & ((std::uint64_t{1} << j) - 1)));
        significance.put_run(rank - run_start);
        significance.put(set.signs[index] != 0);
        run_start = rank + 1;
      }
      below += static_cast<std::size_t>(std::popcount(significant[w]));
    }
    significance.put_run(n - below - run_start);

    BitWriter refinement;
    std::uint64_t batch = 0;
    int batched = 0;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = significant[w]; bits != 0; bits &= bits - 1) {
        const std::size_t index =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        batch = (batch << 1) | ((magnitudes[index] >> plane) & 1u);
        if (++batched == kBitBatch) {
          refinement.put_bits(batch, batched);
          batch = 0;
          batched = 0;
        }
      }
    }
    refinement.put_bits(batch, batched);
    for (std::size_t w = 0; w < words; ++w) significant[w] |= newly[w];

    passes.push_back(significance.finish());
    passes.push_back(refinement.finish());
  }
  return passes;
}

inline std::vector<serde::Bytes> frame_packets(const std::vector<Pass>& passes,
                                               int max_packets) {
  const std::size_t pass_count = passes.size();
  const std::size_t packet_count =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(1, max_packets)),
                            pass_count);
  const std::size_t base = pass_count / packet_count;
  const std::size_t extra = pass_count % packet_count;
  std::vector<serde::Bytes> packets;
  packets.reserve(packet_count);
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < packet_count; ++p) {
    const std::size_t group = base + (p < extra ? 1 : 0);
    serde::Writer w;
    w.varint(group);
    for (std::size_t i = 0; i < group; ++i) {
      w.blob(passes[cursor + i]);
    }
    cursor += group;
    packets.push_back(std::move(w).take());
  }
  assert(cursor == pass_count);
  return packets;
}

struct Header {
  int width = 0;
  int height = 0;
  int channels = 0;
  int levels = 0;
  int top_plane = 0;
  std::uint32_t packet_count = 0;
  bool raster_scan = false;
  bool ycocg = false;
};

inline serde::Bytes encode_header(const Header& h) {
  serde::Writer w(24);
  w.u8(kHeaderMagic);
  w.varint(static_cast<std::uint64_t>(h.width));
  w.varint(static_cast<std::uint64_t>(h.height));
  w.u8(static_cast<std::uint8_t>(h.channels));
  w.u8(static_cast<std::uint8_t>(h.levels));
  w.u8(static_cast<std::uint8_t>(h.top_plane));
  w.varint(h.packet_count);
  w.u8(static_cast<std::uint8_t>((h.raster_scan ? 1 : 0) |
                                 (h.ycocg ? 2 : 0)));
  return std::move(w).take();
}

inline Result<Header> decode_header(std::span<const std::uint8_t> bytes) {
  serde::Reader r(bytes);
  if (r.u8() != kHeaderMagic) {
    r.fail(Errc::malformed, "not a progressive image header");
  }
  const std::uint64_t width = r.varint();
  const std::uint64_t height = r.varint();
  if (!r.ok()) return r.error();
  if (width == 0 || height == 0 || width > 1u << 16 || height > 1u << 16 ||
      width * height >= kMaxDecodedSamples) {
    return Error{Errc::malformed, "implausible dimensions"};
  }
  Header h;
  h.width = static_cast<int>(width);
  h.height = static_cast<int>(height);
  const std::uint8_t channels = r.u8();
  if (channels != 1 && channels != 3) {
    r.fail(Errc::malformed, "unsupported channel count");
  }
  h.channels = channels;
  const std::uint8_t levels = r.u8();
  if (levels > 12) r.fail(Errc::malformed, "too many levels");
  h.levels = levels;
  const std::uint8_t top = r.u8();
  if (top > 31) r.fail(Errc::malformed, "bad top plane");
  h.top_plane = top;
  h.packet_count = static_cast<std::uint32_t>(r.varint());
  const std::uint8_t flags = r.u8();
  if (flags > 3) r.fail(Errc::malformed, "unknown flags");
  h.raster_scan = (flags & 1) != 0;
  h.ycocg = (flags & 2) != 0;
  if (!r.ok()) return r.error();
  return h;
}

}  // namespace detail

inline EncodedImage encode_progressive(const Image& image,
                                       CodecParams params = {}) {
  using namespace detail;
  assert(!image.empty());
  const bool ycocg = params.color_transform && image.channels() == 3;
  const CoefficientSet set = flatten(image, params, ycocg);
  const std::vector<Pass> passes = encode_passes(set);
  EncodedImage out;
  out.packets = frame_packets(passes, params.max_packets);
  Header h;
  h.width = image.width();
  h.height = image.height();
  h.channels = image.channels();
  h.levels = params.levels;
  h.top_plane = set.top_plane;
  h.packet_count = static_cast<std::uint32_t>(out.packets.size());
  h.raster_scan = params.scan == CodecParams::Scan::raster;
  h.ycocg = ycocg;
  out.header = encode_header(h);
  return out;
}

inline Result<Image> decode_progressive_prefix(
    std::span<const std::uint8_t> header,
    std::span<const serde::Bytes> packets) {
  using namespace detail;
  auto decoded_header = decode_header(header);
  if (!decoded_header) return decoded_header.error();
  const Header h = decoded_header.value();

  const std::size_t per_channel =
      static_cast<std::size_t>(h.width) * static_cast<std::size_t>(h.height);
  const std::size_t n = per_channel * static_cast<std::size_t>(h.channels);

  std::vector<std::uint32_t> magnitudes(n, 0);
  std::vector<std::uint8_t> signs(n, 0);
  const std::size_t words = (n + 63) / 64;
  Bitmap significant(words, 0);
  Bitmap newly(words, 0);
  std::size_t significant_count = 0;
  int significant_plane = 0;
  int newly_plane = 0;

  int plane = h.top_plane;
  bool doing_significance = true;
  for (const serde::Bytes& packet : packets) {
    if (packet.empty()) break;
    if (plane < 0) break;
    serde::Reader reader(packet);
    const std::uint64_t group = reader.varint();
    if (!reader.ok()) return reader.error();
    for (std::uint64_t g = 0; g < group; ++g) {
      const serde::Bytes blob = reader.blob();
      if (!reader.ok()) return reader.error();
      if (plane < 0) {
        return Error{Errc::malformed, "more passes than planes"};
      }
      BitReader bits(blob);
      if (doing_significance) {
        const std::size_t count = n - significant_count;
        std::size_t position = 0;
        std::size_t w = 0;
        std::uint8_t open[64];
        int open_count = 0;
        int passed = 0;
        const auto load_word = [&] {
          open_count = 0;
          passed = 0;
          for (std::uint64_t free = ~significant[w]; free != 0; free &= free - 1) {
            open[open_count++] = static_cast<std::uint8_t>(std::countr_zero(free));
          }
        };
        load_word();
        while (position < count) {
          const std::uint64_t run = bits.get_run();
          if (!bits.ok()) return Error{Errc::malformed, "truncated pass"};
          if (run > std::numeric_limits<std::uint64_t>::max() - position) {
            return Error{Errc::malformed, "significance run overflows"};
          }
          if (position + run >= count) break;
          position += static_cast<std::size_t>(run) + 1;
          std::uint64_t skip = run;
          if (skip >= static_cast<std::uint64_t>(open_count - passed)) {
            skip -= static_cast<std::uint64_t>(open_count - passed);
            for (++w; skip >= static_cast<std::uint64_t>(
                                  std::popcount(~significant[w]));
                 ++w) {
              skip -= static_cast<std::uint64_t>(std::popcount(~significant[w]));
            }
            load_word();
          }
          passed += static_cast<int>(skip);
          const int j = open[passed++];
          const bool negative = bits.get();
          if (!bits.ok()) return Error{Errc::malformed, "truncated pass"};
          const std::size_t index = w * 64 + static_cast<std::size_t>(j);
          magnitudes[index] |= 1u << plane;
          signs[index] = negative ? 1 : 0;
          newly[w] |= std::uint64_t{1} << j;
        }
        newly_plane = plane;
        doing_significance = false;
      } else {
        std::size_t left = significant_count;
        std::uint64_t batch = 0;
        int batched = 0;
        for (std::size_t w = 0; w < words; ++w) {
          for (std::uint64_t set = significant[w]; set != 0; set &= set - 1) {
            if (batched == 0) {
              batched = static_cast<int>(
                  std::min<std::size_t>(kBitBatch, left));
              left -= static_cast<std::size_t>(batched);
              batch = bits.get_bits(batched);
              if (!bits.ok()) return Error{Errc::malformed, "truncated pass"};
            }
            const auto bit = static_cast<std::uint32_t>(batch >> --batched) & 1u;
            magnitudes[w * 64 + static_cast<std::size_t>(std::countr_zero(set))] |=
                bit << plane;
          }
        }
        for (std::size_t w = 0; w < words; ++w) {
          significant_count += static_cast<std::size_t>(std::popcount(newly[w]));
          significant[w] |= newly[w];
          newly[w] = 0;
        }
        significant_plane = plane;
        doing_significance = true;
        --plane;
      }
    }
  }

  const auto add_half = [&](const Bitmap& marked, int lowest) {
    if (lowest <= 0) return;
    const std::uint32_t half = 1u << (lowest - 1);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t set = marked[w]; set != 0; set &= set - 1) {
        magnitudes[w * 64 + static_cast<std::size_t>(std::countr_zero(set))] |= half;
      }
    }
  };
  add_half(significant, significant_plane);
  add_half(newly, newly_plane);

  const auto rects = scan_rects(h.width, h.height, h.levels, h.raster_scan);
  std::vector<CoefficientPlane> planes(static_cast<std::size_t>(h.channels));
  for (std::size_t c = 0; c < planes.size(); ++c) {
    CoefficientPlane& plane_data = planes[c];
    plane_data.width = h.width;
    plane_data.height = h.height;
    plane_data.levels = h.levels;
    plane_data.data.resize(per_channel);
    std::int32_t* data = plane_data.data.data();
    const std::uint32_t* m = magnitudes.data() + c * per_channel;
    const std::uint8_t* negative = signs.data() + c * per_channel;
    for_each_in_scan(rects, h.width, [&](std::size_t k, std::size_t i) {
      data[i] = static_cast<std::int32_t>(negative[k] != 0 ? 0u - m[k] : m[k]);
    });
    inverse_haar_inplace(plane_data);
  }

  Image image(h.width, h.height, h.channels);
  std::uint8_t* pixels = image.pixels().data();
  const auto clamp_u8 = [](std::int32_t v) {
    return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
  };
  if (h.channels == 3) {
    for (std::size_t p = 0; p < per_channel; ++p) {
      std::int32_t a = planes[0].data[p];
      std::int32_t b = planes[1].data[p];
      std::int32_t c = planes[2].data[p];
      if (h.ycocg) ycocg_inverse(a, b, c);
      pixels[p * 3] = clamp_u8(a);
      pixels[p * 3 + 1] = clamp_u8(b);
      pixels[p * 3 + 2] = clamp_u8(c);
    }
  } else {
    const std::int32_t* values = planes[0].data.data();
    for (std::size_t p = 0; p < per_channel; ++p) pixels[p] = clamp_u8(values[p]);
  }
  return image;
}

}  // namespace collabqos::media::reference
