#include "collabqos/media/codec.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "collabqos/media/bitio.hpp"
#include "collabqos/media/haar.hpp"

namespace collabqos::media {

namespace {

constexpr std::uint8_t kHeaderMagic = 0xC1;

/// Flattened per-coefficient state across all channels, in global
/// progressive scan order (channel-major, subband or raster scan within
/// a channel).
struct CoefficientSet {
  std::vector<std::uint32_t> magnitudes;
  std::vector<std::uint8_t> signs;  // 1 = negative
  int top_plane = 0;
};

/// The scan of one channel plane as rectangles walked row by row.
std::vector<SubbandRect> scan_rects(int width, int height, int levels,
                                    bool raster) {
  if (raster) return {SubbandRect{0, 0, width, height}};
  return subband_rects(width, height, levels);
}

/// Call f(scan position, plane index) for every coefficient of a plane.
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

/// Reversible YCoCg-R forward lift on one RGB pixel.
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

/// Exact inverse of ycocg_forward, modulo 2^32 so that samples decoded
/// from a corrupt stream cannot overflow.
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

/// Build the per-channel sample planes (after optional decorrelation).
std::vector<CoefficientPlane> build_planes(const Image& image, int levels,
                                           bool ycocg) {
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

CoefficientSet flatten(const Image& image, const CodecParams& params,
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

/// One coded pass (byte-aligned blob).
using Pass = std::vector<std::uint8_t>;

/// Refinement bits are moved 56 at a time, the most one reader refill
/// guarantees.
constexpr int kBitBatch = 56;

// A significance bitmap holds one bit per scan position, 64 positions to
// a word, set once the position is significant. Walking its set bits
// visits the significant positions in order.
using Bitmap = std::vector<std::uint64_t>;

std::vector<Pass> encode_passes(const CoefficientSet& set) {
  const std::uint32_t* magnitudes = set.magnitudes.data();
  const std::size_t n = set.magnitudes.size();
  const std::size_t words = (n + 63) / 64;
  // A position becomes significant in the plane of its top set bit. Row
  // b of `fresh` marks the positions whose top bit is b - 1; row 0, the
  // zero magnitudes, is never read.
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
    // Significance: the run of still-insignificant positions before each
    // newly significant one, then its sign; a final run closes the pass.
    // A position's rank among the insignificant is the position minus
    // the significant positions below it.
    BitWriter significance;
    std::size_t below = 0;  // significant positions in earlier words
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

    // Refinement: this plane's bit of every previously significant one,
    // moved up to kBitBatch at a time.
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

/// Group `passes` into at most `max_packets` packets, preserving order.
/// Early passes are tiny, so grouping merges from the front to keep the
/// largest (finest) passes in their own packets.
std::vector<serde::Bytes> frame_packets(const std::vector<Pass>& passes,
                                        int max_packets) {
  const std::size_t pass_count = passes.size();
  const std::size_t packet_count =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(1, max_packets)),
                            pass_count);
  // Distribute surplus passes over the first packets.
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

serde::Bytes encode_header(const Header& h) {
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

Result<Header> decode_header(std::span<const std::uint8_t> bytes) {
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

}  // namespace

std::size_t EncodedImage::prefix_bytes(std::size_t packet_count) const {
  std::size_t total = header.size();
  const std::size_t count = std::min(packet_count, packets.size());
  for (std::size_t i = 0; i < count; ++i) total += packets[i].size();
  return total;
}

EncodedImage encode_progressive(const Image& image, CodecParams params) {
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

Result<Image> decode_progressive_prefix(
    std::span<const std::uint8_t> header,
    std::span<const serde::Bytes> packets) {
  auto decoded_header = decode_header(header);
  if (!decoded_header) return decoded_header.error();
  const Header h = decoded_header.value();

  const std::size_t per_channel =
      static_cast<std::size_t>(h.width) * static_cast<std::size_t>(h.height);
  const std::size_t n = per_channel * static_cast<std::size_t>(h.channels);

  std::vector<std::uint32_t> magnitudes(n, 0);
  std::vector<std::uint8_t> signs(n, 0);
  // The bitmap of encode_passes. `newly` marks what the last significance
  // pass found until the refinement pass after it merges it in.
  const std::size_t words = (n + 63) / 64;
  Bitmap significant(words, 0);
  Bitmap newly(words, 0);
  std::size_t significant_count = 0;
  // Lowest plane whose bit is known, for the positions of each bitmap.
  int significant_plane = 0;
  int newly_plane = 0;

  // Replay passes in order until packets run out or a gap appears.
  int plane = h.top_plane;
  bool doing_significance = true;
  for (const serde::Bytes& packet : packets) {
    if (packet.empty()) break;  // missing packet terminates the prefix
    if (plane < 0) break;       // trailing data beyond the last plane
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
        // Each run skips that many insignificant positions: whole words by
        // their count, then within word w through `open`, its insignificant
        // bit offsets in order, of which `passed` are behind the cursor.
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

  // Mid-interval estimate for coefficients with unknown lower bits.
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

Result<Image> decode_progressive(const EncodedImage& encoded,
                                 std::size_t packet_count) {
  const std::size_t count = std::min(packet_count, encoded.packets.size());
  return decode_progressive_prefix(
      encoded.header,
      std::span<const serde::Bytes>(encoded.packets.data(), count));
}

}  // namespace collabqos::media
