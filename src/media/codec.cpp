#include "collabqos/media/codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "codec_kernels.hpp"
#include "collabqos/media/bitio.hpp"
#include "collabqos/media/haar.hpp"
#include "scratch.hpp"

namespace collabqos::media {

namespace {

constexpr std::uint8_t kHeaderMagic = 0xC1;

/// Flattened per-coefficient state across all channels, in global
/// progressive scan order (channel-major, subband or raster scan within
/// a channel), held in the call's scratch.
struct CoefficientSet {
  const std::uint32_t* magnitudes = nullptr;
  const std::uint8_t* signs = nullptr;  // 1 = negative
  std::size_t size = 0;
  int top_plane = 0;
};

/// The scan of one channel plane as rectangles walked row by row.
std::vector<SubbandRect> scan_rects(int width, int height, int levels,
                                    bool raster) {
  if (raster) return {SubbandRect{0, 0, width, height}};
  return subband_rects(width, height, levels);
}

/// Call f(scan position, plane index, length) for every rectangle row of
/// a plane's scan: the row's coefficients are `length` consecutive scan
/// positions and `length` consecutive plane samples.
template <class F>
void for_each_scan_row(const std::vector<SubbandRect>& rects, int width,
                       F&& f) {
  std::size_t k = 0;
  for (const SubbandRect& r : rects) {
    const auto length = static_cast<std::size_t>(r.x1 - r.x0);
    if (length == 0) continue;
    for (int y = r.y0; y < r.y1; ++y) {
      f(k, static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
               static_cast<std::size_t>(r.x0),
        length);
      k += length;
    }
  }
}

// The scan-row kernels: plain loops over restrict pointers with a
// branch-free sign, which the compiler vectorises. A sign is 0 or 1, and
// (m ^ -s) + s is m for s = 0 and -m (mod 2^32) for s = 1.

/// Magnitudes and signs of `length` samples; returns the OR of the
/// magnitudes.
std::uint32_t gather_row(const std::int32_t* __restrict samples,
                         std::uint32_t* __restrict magnitudes,
                         std::uint8_t* __restrict signs, std::size_t length) {
  std::uint32_t bits = 0;
  for (std::size_t i = 0; i < length; ++i) {
    const auto value = static_cast<std::uint32_t>(samples[i]);
    const std::uint32_t negative = value >> 31;
    const std::uint32_t magnitude = (value ^ (0u - negative)) + negative;
    magnitudes[i] = magnitude;
    signs[i] = static_cast<std::uint8_t>(negative);
    bits |= magnitude;
  }
  return bits;
}

/// Signed samples from magnitudes and signs.
void scatter_row(const std::uint32_t* __restrict magnitudes,
                 const std::uint8_t* __restrict signs,
                 std::int32_t* __restrict samples, std::size_t length) {
  for (std::size_t i = 0; i < length; ++i) {
    const std::uint32_t negative = signs[i];
    samples[i] =
        static_cast<std::int32_t>((magnitudes[i] ^ (0u - negative)) + negative);
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

CoefficientSet flatten(const Image& image, const CodecParams& params,
                       bool ycocg, detail::Scratch& scratch) {
  const int channels = image.channels();
  const std::size_t per_channel = image.pixel_count();
  const std::size_t n = per_channel * static_cast<std::size_t>(channels);
  // Channel planes back to back, transformed in place with one scratch.
  std::int32_t* const samples = scratch.samples.get(n);
  const std::uint8_t* src = image.pixels().data();
  if (channels == 3) {
    std::int32_t* p0 = samples;
    std::int32_t* p1 = p0 + per_channel;
    std::int32_t* p2 = p1 + per_channel;
    for (std::size_t p = 0; p < per_channel; ++p) {
      std::int32_t r = src[p * 3];
      std::int32_t g = src[p * 3 + 1];
      std::int32_t b = src[p * 3 + 2];
      if (ycocg) ycocg_forward(r, g, b);
      p0[p] = r;
      p1[p] = g;
      p2[p] = b;
    }
  } else {
    std::copy_n(src, per_channel, samples);
  }
  std::int32_t* const plane = scratch.haar_plane.get(per_channel);
  for (int c = 0; c < channels; ++c) {
    forward_haar_inplace(samples + c * per_channel, image.width(),
                         image.height(), params.levels, plane);
  }

  const auto rects =
      scan_rects(image.width(), image.height(), params.levels,
                 params.scan == CodecParams::Scan::raster);
  std::uint32_t* const all_magnitudes = scratch.magnitudes.get(n);
  std::uint8_t* const all_signs = scratch.signs.get(n);
  std::uint32_t all_bits = 0;
  for (int c = 0; c < channels; ++c) {
    const std::size_t base = static_cast<std::size_t>(c) * per_channel;
    const std::int32_t* data = samples + base;
    std::uint32_t* magnitudes = all_magnitudes + base;
    std::uint8_t* signs = all_signs + base;
    for_each_scan_row(rects, image.width(),
                      [&](std::size_t k, std::size_t i, std::size_t length) {
                        all_bits |= gather_row(data + i, magnitudes + k,
                                               signs + k, length);
                      });
  }
  CoefficientSet set;
  set.magnitudes = all_magnitudes;
  set.signs = all_signs;
  set.size = n;
  set.top_plane = all_bits > 0 ? 32 - std::countl_zero(all_bits) - 1 : 0;
  return set;
}

/// One coded pass (byte-aligned blob).
using Pass = std::vector<std::uint8_t>;

// A significance bitmap holds one bit per scan position, 64 positions to
// a word, set once the position is significant. Walking its set bits
// visits the significant positions in order.

/// Each magnitude's significance row: the plane of its top set bit plus
/// one (0 for a zero magnitude), padded with zeros to whole words. The
/// float conversion is exact below 2^24, and a coefficient of 8-bit
/// samples stays below 2^10: the S-transform's low band keeps its
/// input's range and its high band is at most that range's width.
void significance_rows(const std::uint32_t* __restrict in, std::size_t n,
                       std::size_t words, std::uint8_t* __restrict out) {
  for (std::size_t i = 0; i < n; ++i) {
    assert(in[i] < 1u << 24);
    const auto exponent = static_cast<std::int32_t>(
        std::bit_cast<std::uint32_t>(static_cast<float>(
            static_cast<std::int32_t>(in[i]))) >> 23);
    out[i] = static_cast<std::uint8_t>(std::max(exponent - 126, 0));
  }
  std::fill(out + n, out + words * 64, std::uint8_t{0});
}

/// Bit i set iff bytes[i] == value, over 64 bytes.
inline std::uint64_t equal_mask(const std::uint8_t* bytes,
                                std::uint8_t value) noexcept {
#if defined(__SSE2__)
  const __m128i wanted = _mm_set1_epi8(static_cast<char>(value));
  std::uint64_t mask = 0;
  for (int c = 0; c < 4; ++c) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 16 * c));
    const auto bits = static_cast<std::uint16_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(chunk, wanted)));
    mask |= static_cast<std::uint64_t>(bits) << (16 * c);
  }
  return mask;
#else
  std::uint64_t mask = 0;
  for (int i = 0; i < 64; ++i) {
    mask |= static_cast<std::uint64_t>(bytes[i] == value) << i;
  }
  return mask;
#endif
}

// ---- Bit kernels ----------------------------------------------------------
//
// The passes are written once, as templates over a bit-operation set, and
// built twice: for the baseline ISA, and for x86-64 CPUs with POPCNT,
// LZCNT, BMI1 and BMI2, where counts, selects and variable shifts are one
// instruction each. The choice is made once per process, from the CPU.

constexpr std::uint64_t kByteOnes = 0x0101010101010101;

/// Byte i of the result: the set bits in bytes 0..i of x (the per-byte
/// counts of the classic bit-slicing popcount, summed by one multiply).
constexpr std::uint64_t byte_prefix_counts(std::uint64_t x) noexcept {
  x = x - ((x >> 1) & 0x5555555555555555);
  x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333);
  return ((x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f) * kByteOnes;
}

/// kSelectInByte[b * 8 + r]: the offset of the set bit of rank r in byte
/// b (8 when b has no such bit).
constexpr std::array<std::uint8_t, 256 * 8> kSelectInByte = [] {
  std::array<std::uint8_t, 256 * 8> table{};
  for (unsigned b = 0; b < 256; ++b) {
    unsigned rank = 0;
    for (unsigned r = 0; r < 8; ++r) table[b * 8 + r] = 8;
    for (unsigned bit = 0; bit < 8; ++bit) {
      if ((b >> bit) & 1u) table[b * 8 + rank++] = static_cast<std::uint8_t>(bit);
    }
  }
  return table;
}();

constexpr std::uint64_t reverse_bits(std::uint64_t x) noexcept {
  x = ((x >> 1) & 0x5555555555555555) | ((x & 0x5555555555555555) << 1);
  x = ((x >> 2) & 0x3333333333333333) | ((x & 0x3333333333333333) << 2);
  x = ((x >> 4) & 0x0f0f0f0f0f0f0f0f) | ((x & 0x0f0f0f0f0f0f0f0f) << 4);
  return __builtin_bswap64(x);
}

/// The baseline ISA has no population count, and std::popcount is a
/// library call there, so counts come from byte_prefix_counts.
struct PortableBits {
  static int popcount(std::uint64_t x) noexcept {
    return static_cast<int>(byte_prefix_counts(x) >> 56);
  }
  /// Refinement of one bitmap word: the low `count` bits of `bits` go, in
  /// order from the most significant, to the `count` set positions of
  /// `mask`; OR `plane_bit` into the magnitude of each that gets a 1.
  static void refine(std::uint32_t* magnitudes, std::uint64_t bits,
                     int count, std::uint64_t mask,
                     std::uint32_t plane_bit) noexcept {
    for (; mask != 0; mask &= mask - 1) {
      const auto bit = static_cast<std::uint32_t>(bits >> --count) & 1u;
      magnitudes[std::countr_zero(mask)] |= bit * plane_bit;
    }
  }

  /// One bitmap word prepared for repeated selects.
  struct Word {
    std::uint64_t bits;
    std::uint64_t prefix;  ///< byte_prefix_counts(bits)

    explicit Word(std::uint64_t x) noexcept
        : bits(x), prefix(byte_prefix_counts(x)) {}

    [[nodiscard]] std::uint64_t count() const noexcept { return prefix >> 56; }
    /// The offset of the set bit of rank `rank` (from 0); there must be
    /// more than `rank` set bits. Branch-free: the bytes whose prefix
    /// count is at most `rank` lie below the wanted bit, and a table finds
    /// it within its byte.
    [[nodiscard]] int select(std::uint64_t rank) const noexcept {
      constexpr std::uint64_t kHighs = 0x8080808080808080;
      const std::uint64_t below = ((rank * kByteOnes) | kHighs) - prefix;
      const int shift =
          static_cast<int>((((below & kHighs) >> 7) * kByteOnes) >> 56) * 8;
      const std::uint64_t before = ((prefix << 8) >> shift) & 0xff;
      return shift +
             kSelectInByte[((bits >> shift) & 0xff) * 8 + (rank - before)];
    }
  };
};

#if defined(__x86_64__)
#define COLLABQOS_CODEC_BMI2 1
#define COLLABQOS_BMI2_TARGET gnu::target("popcnt,lzcnt,bmi,bmi2")

/// Only ever inlined into the functions built with COLLABQOS_BMI2_TARGET.
struct Bmi2Bits {
  static int popcount(std::uint64_t x) noexcept { return std::popcount(x); }
  /// PortableBits::refine, touching only the positions that get a 1: one
  /// pdep spreads the bits over `mask`, once they are reversed so that the
  /// first lands in bit 0.
  [[COLLABQOS_BMI2_TARGET]] static void refine(
      std::uint32_t* magnitudes, std::uint64_t bits, int count,
      std::uint64_t mask, std::uint32_t plane_bit) noexcept {
    for (std::uint64_t ones = _pdep_u64(reverse_bits(bits) >> (64 - count), mask);
         ones != 0; ones &= ones - 1) {
      magnitudes[std::countr_zero(ones)] |= plane_bit;
    }
  }

  struct Word {
    std::uint64_t bits;

    explicit Word(std::uint64_t x) noexcept : bits(x) {}

    [[nodiscard]] std::uint64_t count() const noexcept {
      return static_cast<std::uint64_t>(std::popcount(bits));
    }
    /// pdep moves a single bit to the position of the set bit of that
    /// rank.
    [[COLLABQOS_BMI2_TARGET]] [[nodiscard]] int select(
        std::uint64_t rank) const noexcept {
      return static_cast<int>(_tzcnt_u64(_pdep_u64(std::uint64_t{1} << rank, bits)));
    }
  };
};
#endif

/// Refinement bits are moved 56 at a time, the most one put takes.
constexpr int kBitBatch = 56;

// The passes, one kernel each. A pass that both computes and codes does
// so in two loops through a buffer of codes, run << 1 | sign (a run is
// below n < 2^26, so a code fits 32 bits): in one loop the state of both
// outgrows the registers, and the spilled counters then carry every code
// through memory.

/// What a malformed pass breaks, or nullptr when it decoded.
using PassFault = const char*;

/// The significance pass of the plane whose positions have significance
/// row `row` in `rows` (significance_rows): the run of still-
/// insignificant positions before each newly significant one, then its
/// sign; a closing run ends the pass. Marks those positions in `newly`.
/// A position's rank among the insignificant is the insignificant
/// positions in earlier words plus those below it in its word.
template <class Bits>
Pass encode_significance_with(
    const std::uint8_t* rows, std::uint8_t row, const std::uint8_t* signs,
    const std::uint64_t* significant, std::size_t significant_count,
    std::size_t n, std::uint64_t* newly, std::uint32_t* codes) {
  const std::size_t words = (n + 63) / 64;
  std::size_t count = 0;
  std::size_t open_below = 0;
  std::size_t run_start = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t open = ~significant[w];
    const std::uint64_t fresh = equal_mask(rows + 64 * w, row);
    newly[w] = fresh;
    for (std::uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
      const int j = std::countr_zero(bits);
      const std::size_t rank =
          open_below + static_cast<std::size_t>(Bits::popcount(
                           open & ((std::uint64_t{1} << j) - 1)));
      codes[count++] = static_cast<std::uint32_t>(
          ((rank - run_start) << 1) | signs[w * 64 + static_cast<std::size_t>(j)]);
      run_start = rank + 1;
    }
    open_below += static_cast<std::size_t>(Bits::popcount(open));
  }

  // A code is put_run(run) then put(sign): run + 1 in
  // 2 * bit_width(run + 1) - 1 bits (gamma), then the sign. A run is below
  // 2^26, so a code takes at most 52 bits, and two of them usually fit one
  // put.
  const auto code_bits = [](std::uint32_t code, int& length) {
    const std::uint64_t gamma = (code >> 1) + 1;
    length = 2 * std::bit_width(gamma);
    return (gamma << 1) | (code & 1);
  };
  BitWriter out(count / 2);
  std::size_t i = 0;
  for (; i + 1 < count; i += 2) {
    int first = 0;
    int second = 0;
    const std::uint64_t a = code_bits(codes[i], first);
    const std::uint64_t b = code_bits(codes[i + 1], second);
    if (first + second <= 56) {
      out.put_bits((a << second) | b, first + second);
    } else {
      out.put_bits(a, first);
      out.put_bits(b, second);
    }
  }
  if (i < count) {
    int length = 0;
    const std::uint64_t a = code_bits(codes[i], length);
    out.put_bits(a, length);
  }
  out.put_run(n - significant_count - run_start);
  return out.finish();
}

/// The refinement pass: this plane's bit of every position significant
/// before it, moved up to kBitBatch at a time. Then merges `newly` into
/// `significant` and counts it in `significant_count`.
template <class Bits>
Pass encode_refinement_with(
    const std::uint32_t* magnitudes, std::uint64_t* significant,
    const std::uint64_t* newly, std::size_t words, int plane,
    std::size_t& significant_count) {
  BitWriter out((significant_count + 7) / 8);
  std::uint64_t batch = 0;
  int batched = 0;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = significant[w]; bits != 0; bits &= bits - 1) {
      const std::size_t index =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      batch = (batch << 1) | ((magnitudes[index] >> plane) & 1u);
      if (++batched == kBitBatch) {
        out.put_bits(batch, batched);
        batch = 0;
        batched = 0;
      }
    }
  }
  out.put_bits(batch, batched);
  for (std::size_t w = 0; w < words; ++w) {
    significant[w] |= newly[w];
    significant_count += static_cast<std::size_t>(Bits::popcount(newly[w]));
  }
  return out.finish();
}

/// Decode a significance pass over the `insignificant` positions left by
/// `significant`: mark the positions it makes significant in `newly` (all
/// zero on entry), and give them bit `plane` and their sign.
///
/// First the codes are read, up to the closing run. Then each run skips
/// that many insignificant positions: whole words by the count of their
/// zeros, then within word w to the zero of rank `rank`, where `taken`
/// zeros of w lie behind the cursor.
template <class Bits>
PassFault decode_significance_with(
    std::span<const std::uint8_t> blob, std::size_t insignificant,
    const std::uint64_t* significant, int plane, std::uint64_t* newly,
    std::uint32_t* magnitudes, std::uint8_t* signs, std::uint32_t* codes) {
  BitReader bits(blob);
  std::size_t remaining = insignificant;
  std::size_t count = 0;
  while (remaining > 0) {
    unsigned sign = 0;
    const std::uint64_t run = bits.get_run_bit(sign);
    if (!bits.ok()) return "truncated pass";
    if (run >= remaining) {
      // The closing run, or one that would wrap the position.
      const std::size_t position = insignificant - remaining;
      if (run > std::numeric_limits<std::uint64_t>::max() - position) {
        return "significance run overflows";
      }
      break;
    }
    if (sign > 1) return "truncated pass";
    remaining -= static_cast<std::size_t>(run) + 1;
    codes[count++] = static_cast<std::uint32_t>((run << 1) | sign);
  }

  std::size_t w = 0;
  typename Bits::Word open(~significant[0]);
  std::uint64_t open_count = open.count();
  std::uint64_t taken = 0;
  std::uint64_t found = 0;  // newly bits of word w
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t code = codes[i];
    std::uint64_t rank = taken + (code >> 1);
    if (rank >= open_count) {
      newly[w] = found;
      found = 0;
      rank -= open_count;
      for (++w;; ++w) {
        open_count = static_cast<std::uint64_t>(Bits::popcount(~significant[w]));
        if (rank < open_count) break;
        rank -= open_count;
      }
      open = typename Bits::Word(~significant[w]);
    }
    taken = rank + 1;
    const int j = open.select(rank);
    found |= std::uint64_t{1} << j;
    const std::size_t index = w * 64 + static_cast<std::size_t>(j);
    magnitudes[index] = 1u << plane;
    signs[index] = static_cast<std::uint8_t>(code & 1);
  }
  newly[w] = found;
  return nullptr;
}

/// Decode a refinement pass: OR this plane's bit into the magnitude of
/// every significant position, a word's worth of bits per read. Then
/// merge `newly` into `significant` (clearing it) and count it in
/// `significant_count`.
template <class Bits>
PassFault decode_refinement_with(
    std::span<const std::uint8_t> blob, std::uint64_t* significant,
    std::uint64_t* newly, std::size_t words, int plane,
    std::uint32_t* magnitudes, std::size_t& significant_count) {
  BitReader bits(blob);
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t known = significant[w];
    if (known == 0) continue;
    int left = Bits::popcount(known);
    std::uint64_t batch = 0;
    if (left > 32) {
      batch = bits.get_bits(left - 32) << 32;
      batch |= bits.get_bits(32);
    } else {
      batch = bits.get_bits(left);
    }
    if (!bits.ok()) return "truncated pass";
    Bits::refine(magnitudes + w * 64, batch, left, known, 1u << plane);
  }
  for (std::size_t w = 0; w < words; ++w) {
    significant_count += static_cast<std::size_t>(Bits::popcount(newly[w]));
    significant[w] |= newly[w];
    newly[w] = 0;
  }
  return nullptr;
}

/// One build of the pass kernels, each a function of its own so that its
/// loops get the registers to themselves.
struct Kernels {
  Pass (*encode_significance)(const std::uint8_t*, std::uint8_t,
                              const std::uint8_t*, const std::uint64_t*,
                              std::size_t, std::size_t, std::uint64_t*,
                              std::uint32_t*);
  Pass (*encode_refinement)(const std::uint32_t*, std::uint64_t*,
                            const std::uint64_t*, std::size_t, int,
                            std::size_t&);
  PassFault (*decode_significance)(std::span<const std::uint8_t>, std::size_t,
                                   const std::uint64_t*, int, std::uint64_t*,
                                   std::uint32_t*, std::uint8_t*,
                                   std::uint32_t*);
  PassFault (*decode_refinement)(std::span<const std::uint8_t>,
                                 std::uint64_t*, std::uint64_t*, std::size_t,
                                 int, std::uint32_t*, std::size_t&);
};

// The two builds: the templates as they are for the baseline ISA, and
// flattened into functions built for BMI2.

constexpr Kernels kPortableKernels{&encode_significance_with<PortableBits>,
                                   &encode_refinement_with<PortableBits>,
                                   &decode_significance_with<PortableBits>,
                                   &decode_refinement_with<PortableBits>};

#if defined(COLLABQOS_CODEC_BMI2)
[[COLLABQOS_BMI2_TARGET, gnu::flatten]] Pass encode_significance_bmi2(
    const std::uint8_t* rows, std::uint8_t row, const std::uint8_t* signs,
    const std::uint64_t* significant, std::size_t significant_count,
    std::size_t n, std::uint64_t* newly, std::uint32_t* codes) {
  return encode_significance_with<Bmi2Bits>(
      rows, row, signs, significant, significant_count, n, newly, codes);
}
[[COLLABQOS_BMI2_TARGET, gnu::flatten]] Pass encode_refinement_bmi2(
    const std::uint32_t* magnitudes, std::uint64_t* significant,
    const std::uint64_t* newly, std::size_t words, int plane,
    std::size_t& significant_count) {
  return encode_refinement_with<Bmi2Bits>(magnitudes, significant, newly,
                                          words, plane, significant_count);
}
[[COLLABQOS_BMI2_TARGET, gnu::flatten]] PassFault decode_significance_bmi2(
    std::span<const std::uint8_t> blob, std::size_t insignificant,
    const std::uint64_t* significant, int plane, std::uint64_t* newly,
    std::uint32_t* magnitudes, std::uint8_t* signs, std::uint32_t* codes) {
  return decode_significance_with<Bmi2Bits>(
      blob, insignificant, significant, plane, newly, magnitudes, signs, codes);
}
[[COLLABQOS_BMI2_TARGET, gnu::flatten]] PassFault decode_refinement_bmi2(
    std::span<const std::uint8_t> blob, std::uint64_t* significant,
    std::uint64_t* newly, std::size_t words, int plane,
    std::uint32_t* magnitudes, std::size_t& significant_count) {
  return decode_refinement_with<Bmi2Bits>(
      blob, significant, newly, words, plane, magnitudes, significant_count);
}

constexpr Kernels kBmi2Kernels{&encode_significance_bmi2,
                               &encode_refinement_bmi2,
                               &decode_significance_bmi2,
                               &decode_refinement_bmi2};
#endif

/// The BMI2 build where codec_bmi2_available(), the portable one
/// elsewhere.
const Kernels& active_kernels() {
#if defined(COLLABQOS_CODEC_BMI2)
  static const bool bmi2 = codec_bmi2_available();
  if (bmi2) return kBmi2Kernels;
#endif
  return kPortableKernels;
}

/// All passes of `set`, two per plane from the top. The codes of a pass
/// take the scratch's samples, which flatten has consumed.
std::vector<Pass> encode_passes(const CoefficientSet& set,
                                const Kernels& kernels,
                                detail::Scratch& scratch) {
  const std::size_t n = set.size;
  const std::size_t words = (n + 63) / 64;
  std::uint8_t* const rows = scratch.rows.get(words * 64);
  significance_rows(set.magnitudes, n, words, rows);
  std::uint64_t* const significant = scratch.significant.zeroed(words);
  std::uint64_t* const newly = scratch.newly.zeroed(words);
  auto* const codes = reinterpret_cast<std::uint32_t*>(scratch.samples.get(n));
  std::size_t significant_count = 0;
  std::vector<Pass> passes;
  passes.reserve(2 * static_cast<std::size_t>(set.top_plane + 1));
  for (int plane = set.top_plane; plane >= 0; --plane) {
    passes.push_back(kernels.encode_significance(
        rows, static_cast<std::uint8_t>(plane + 1), set.signs, significant,
        significant_count, n, newly, codes));
    passes.push_back(kernels.encode_refinement(
        set.magnitudes, significant, newly, words, plane, significant_count));
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

/// A length-prefixed blob as a view of the packet's bytes, with the
/// checks and verdicts of Reader::blob, which would copy it.
std::span<const std::uint8_t> view_blob(serde::Reader& reader) {
  const std::string_view bytes = reader.view_string();
  return {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()};
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

bool codec_bmi2_available() noexcept {
#if defined(COLLABQOS_CODEC_BMI2)
  // May run during static initialisation, before the runtime's own CPU
  // probe; __builtin_cpu_init is idempotent.
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("popcnt") || !__builtin_cpu_supports("bmi") ||
      !__builtin_cpu_supports("bmi2")) {
    return false;
  }
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // LZCNT is CPUID 0x80000001 ECX bit 5.
  if (__get_cpuid(0x80000001, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & (1u << 5)) == 0) {
    return false;
  }
  // AMD CPUs before family 19h (Zen 3) run pdep in microcode, dozens of
  // times slower than the portable select.
  if (__builtin_cpu_is("amd") && __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    unsigned family = (eax >> 8) & 0xf;
    if (family == 0xf) family += (eax >> 20) & 0xff;
    if (family < 0x19) return false;
  }
  return true;
#else
  return false;
#endif
}

namespace {

EncodedImage encode_with(const Image& image, CodecParams params,
                         const Kernels& kernels) {
  assert(!image.empty());
  const bool ycocg = params.color_transform && image.channels() == 3;
  const detail::ScratchLease scratch(image.pixels().size());
  const CoefficientSet set = flatten(image, params, ycocg, *scratch);
  const std::vector<Pass> passes = encode_passes(set, kernels, *scratch);
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

Result<Image> decode_with(std::span<const std::uint8_t> header,
                          std::span<const serde::Bytes> packets,
                          const Kernels& kernels) {
  auto decoded_header = decode_header(header);
  if (!decoded_header) return decoded_header.error();
  const Header h = decoded_header.value();

  const std::size_t per_channel =
      static_cast<std::size_t>(h.width) * static_cast<std::size_t>(h.height);
  const std::size_t n = per_channel * static_cast<std::size_t>(h.channels);

  const detail::ScratchLease scratch(n);
  std::uint32_t* const magnitudes = scratch->magnitudes.zeroed(n);
  std::uint8_t* const signs = scratch->signs.zeroed(n);
  // The bitmap of encode_passes. `newly` marks what the last significance
  // pass found until the refinement pass after it merges it in.
  const std::size_t words = (n + 63) / 64;
  std::uint64_t* const significant = scratch->significant.zeroed(words);
  std::uint64_t* const newly = scratch->newly.zeroed(words);
  std::size_t significant_count = 0;
  // Lowest plane whose bit is known, for the positions of each bitmap.
  int significant_plane = 0;
  int newly_plane = 0;
  // The samples of the inverse transform. Until the scatter, the buffer
  // holds a significance pass's codes between reading and placing them.
  std::int32_t* const samples = scratch->samples.get(n);
  auto* const codes = reinterpret_cast<std::uint32_t*>(samples);

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
      const std::span<const std::uint8_t> blob = view_blob(reader);
      if (!reader.ok()) return reader.error();
      if (plane < 0) {
        return Error{Errc::malformed, "more passes than planes"};
      }
      if (doing_significance) {
        if (const PassFault fault = kernels.decode_significance(
                blob, n - significant_count, significant, plane, newly,
                magnitudes, signs, codes)) {
          return Error{Errc::malformed, fault};
        }
        newly_plane = plane;
        doing_significance = false;
      } else {
        if (const PassFault fault = kernels.decode_refinement(
                blob, significant, newly, words, plane, magnitudes,
                significant_count)) {
          return Error{Errc::malformed, fault};
        }
        significant_plane = plane;
        doing_significance = true;
        --plane;
      }
    }
  }

  // Mid-interval estimate for coefficients with unknown lower bits.
  const auto add_half = [&](const std::uint64_t* marked, int lowest) {
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

  // Scan order back to channel planes, each inverted in place with one
  // scratch plane.
  const auto rects = scan_rects(h.width, h.height, h.levels, h.raster_scan);
  std::int32_t* const plane_scratch = scratch->haar_plane.get(per_channel);
  for (int c = 0; c < h.channels; ++c) {
    const std::size_t base = static_cast<std::size_t>(c) * per_channel;
    std::int32_t* data = samples + base;
    const std::uint32_t* m = magnitudes + base;
    const std::uint8_t* negative = signs + base;
    for_each_scan_row(rects, h.width,
                      [&](std::size_t k, std::size_t i, std::size_t length) {
                        scatter_row(m + k, negative + k, data + i, length);
                      });
    inverse_haar_inplace(data, h.width, h.height, h.levels, plane_scratch);
  }

  Image image(h.width, h.height, h.channels);
  std::uint8_t* pixels = image.pixels().data();
  const auto clamp_u8 = [](std::int32_t v) {
    return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
  };
  const std::int32_t* p0 = samples;
  if (h.channels == 3) {
    const std::int32_t* p1 = p0 + per_channel;
    const std::int32_t* p2 = p1 + per_channel;
    for (std::size_t p = 0; p < per_channel; ++p) {
      std::int32_t a = p0[p];
      std::int32_t b = p1[p];
      std::int32_t c = p2[p];
      if (h.ycocg) ycocg_inverse(a, b, c);
      pixels[p * 3] = clamp_u8(a);
      pixels[p * 3 + 1] = clamp_u8(b);
      pixels[p * 3 + 2] = clamp_u8(c);
    }
  } else {
    for (std::size_t p = 0; p < per_channel; ++p) pixels[p] = clamp_u8(p0[p]);
  }
  return image;
}

}  // namespace

EncodedImage encode_progressive(const Image& image, CodecParams params) {
  return encode_with(image, params, active_kernels());
}

Result<Image> decode_progressive_prefix(
    std::span<const std::uint8_t> header,
    std::span<const serde::Bytes> packets) {
  return decode_with(header, packets, active_kernels());
}

EncodedImage encode_progressive_portable(const Image& image,
                                         CodecParams params) {
  return encode_with(image, params, kPortableKernels);
}

Result<Image> decode_progressive_prefix_portable(
    std::span<const std::uint8_t> header,
    std::span<const serde::Bytes> packets) {
  return decode_with(header, packets, kPortableKernels);
}

Result<Image> decode_progressive(const EncodedImage& encoded,
                                 std::size_t packet_count) {
  const std::size_t count = std::min(packet_count, encoded.packets.size());
  return decode_progressive_prefix(
      encoded.header,
      std::span<const serde::Bytes>(encoded.packets.data(), count));
}

}  // namespace collabqos::media
