#include "collabqos/media/codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
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

/// What a decode knows of its scan positions. The magnitudes and signs
/// of a bitmap word are zeroed when a pass first makes one of its
/// positions significant, and those of a word that neither bitmap marks
/// are never read. A nonzero magnitude is known to plane `lowest` of its
/// bitmap, and gets half that plane's interval: `old_half` if
/// magnitude >> old_shift is nonzero, else `newly_half`.
struct Known {
  const std::uint32_t* magnitudes;
  const std::uint8_t* signs;
  const std::uint64_t* significant;
  const std::uint64_t* newly;
  int old_shift;
  std::uint32_t old_half;
  std::uint32_t newly_half;
};

/// The coefficients of scan positions [k, k + length), all in marked
/// words, into `samples`.
void scatter_marked(const Known& known, std::size_t k,
                    std::int32_t* __restrict samples, std::size_t length) {
  const std::uint32_t* __restrict m = known.magnitudes + k;
  const std::uint8_t* __restrict s = known.signs + k;
  for (std::size_t j = 0; j < length; ++j) {
    const std::uint32_t half =
        (m[j] >> known.old_shift) != 0 ? known.old_half : known.newly_half;
    const std::uint32_t magnitude = m[j] != 0 ? m[j] | half : 0u;
    const std::uint32_t negative = s[j];
    samples[j] =
        static_cast<std::int32_t>((magnitude ^ (0u - negative)) + negative);
  }
}

/// The coefficients of scan positions [k, k + length) into `samples`: a
/// stretch in words that neither bitmap marks is zero.
void scatter_row(const Known& known, std::size_t k, std::int32_t* samples,
                 std::size_t length) {
  const std::size_t first = k / 64;
  const std::size_t last = (k + length - 1) / 64;
  bool all = true;
  bool none = true;
  for (std::size_t w = first; w <= last; ++w) {
    const bool marked = (known.significant[w] | known.newly[w]) != 0;
    all = all && marked;
    none = none && !marked;
  }
  if (all) return scatter_marked(known, k, samples, length);
  if (none) return static_cast<void>(std::fill_n(samples, length, 0));
  for (const std::size_t end = k + length; k < end;) {
    const std::size_t w = k / 64;
    const std::size_t span = std::min(64 - k % 64, end - k);
    if ((known.significant[w] | known.newly[w]) != 0) {
      scatter_marked(known, k, samples, span);
    } else {
      std::fill_n(samples, span, 0);
    }
    samples += span;
    k += span;
  }
}

/// pixels[i] = clamp(values[i], 0, 255) for `count` values.
void clamp_to_bytes(const std::int32_t* values, std::uint8_t* pixels,
                    std::size_t count) {
  std::size_t i = 0;
#if defined(__SSE2__)
  // Saturating to int16 and then to uint8 is exactly the clamp.
  const auto load = [values](std::size_t at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(values + at));
  };
  for (; i + 16 <= count; i += 16) {
    const __m128i low = _mm_packs_epi32(load(i), load(i + 4));
    const __m128i high = _mm_packs_epi32(load(i + 8), load(i + 12));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(pixels + i),
                     _mm_packus_epi16(low, high));
  }
#endif
  for (; i < count; ++i) {
    pixels[i] = static_cast<std::uint8_t>(std::clamp(values[i], 0, 255));
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
  // The magnitudes run on to whole words of zeros for plane_mask.
  const std::size_t padded = (n + 63) / 64 * 64;
  std::uint32_t* const all_magnitudes = scratch.magnitudes.get(padded);
  std::fill(all_magnitudes + n, all_magnitudes + padded, 0u);
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

/// Bit i set iff bit `plane` of values[i] is, over 64 values.
inline std::uint64_t plane_mask(const std::uint32_t* values,
                                int plane) noexcept {
#if defined(__SSE2__)
  // Bit `plane` shifted to the sign, which the saturating packs keep
  // down to bytes.
  const __m128i shift = _mm_cvtsi32_si128(31 - plane);
  const auto load = [&](int at) {
    return _mm_sll_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(values + at)), shift);
  };
  std::uint64_t mask = 0;
  for (int c = 0; c < 4; ++c) {
    const __m128i low = _mm_packs_epi32(load(16 * c), load(16 * c + 4));
    const __m128i high = _mm_packs_epi32(load(16 * c + 8), load(16 * c + 12));
    const auto bits = static_cast<std::uint16_t>(
        _mm_movemask_epi8(_mm_packs_epi16(low, high)));
    mask |= static_cast<std::uint64_t>(bits) << (16 * c);
  }
  return mask;
#else
  std::uint64_t mask = 0;
  for (int i = 0; i < 64; ++i) {
    mask |= static_cast<std::uint64_t>((values[i] >> plane) & 1u) << i;
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
  /// The bits of `x` at the `count` set positions of `mask`, the lowest
  /// position's as the most significant.
  static std::uint64_t gather(std::uint64_t x, std::uint64_t mask,
                              int /*count*/) noexcept {
    std::uint64_t out = 0;
    for (; mask != 0; mask &= mask - 1) {
      out = (out << 1) | ((x >> std::countr_zero(mask)) & 1u);
    }
    return out;
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
  /// PortableBits::gather as one pext, reversed; `count` is at least 1.
  [[COLLABQOS_BMI2_TARGET]] static std::uint64_t gather(
      std::uint64_t x, std::uint64_t mask, int count) noexcept {
    return reverse_bits(_pext_u64(x, mask)) >> (64 - count);
  }
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
/// A refinement word with at least this many significant positions takes
/// its plane's bits for the whole word at once: the plane_mask costs
/// about as much as this many bits one by one.
constexpr int kWordRefinement = 12;

// ---- Significance run table -------------------------------------------
//
// A significance code is a run's gamma code and then its sign:
// 2 * bit_width(run + 1) bits, at least 2. The next kPeekBits bits of a
// pass hold up to kTableCodes whole codes, each with run + 1 <= 63, and a
// table over those bits reads them in one step.

constexpr int kPeekBits = 12;
constexpr int kTableCodes = kPeekBits / 2;
/// A decoded code from this value up is kept in full beside the bytes.
constexpr std::uint32_t kLongCode = 0xff;

/// kRunTable[bits]: the whole codes at the front of the kPeekBits bits
/// `bits`. Bits 0-5 hold the bits they take (lowest, so that taking them
/// costs no shift), 6-8 their count, 9-14 the sum of their
/// run + 1 (at most 63), and bytes 2-7 the codes, run << 1 | sign, one
/// to a byte, so that one store writes them all.
constexpr std::array<std::uint64_t, 1u << kPeekBits> kRunTable = [] {
  std::array<std::uint64_t, 1u << kPeekBits> table{};
  for (unsigned bits = 0; bits < table.size(); ++bits) {
    const auto bit = [bits](int at) { return (bits >> (kPeekBits - 1 - at)) & 1u; };
    int used = 0;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t codes = 0;
    while (count < kTableCodes) {
      int zeros = 0;
      while (used + zeros < kPeekBits && bit(used + zeros) == 0) ++zeros;
      const int length = 2 * zeros + 2;
      if (used + length > kPeekBits) break;
      // The gamma value (zeros + 1 bits) and the sign end the code.
      const unsigned tail = (bits >> (kPeekBits - used - length)) &
                            ((1u << (zeros + 2)) - 1);
      const unsigned run_plus_one = tail >> 1;
      codes |= static_cast<std::uint64_t>(((run_plus_one - 1) << 1) | (tail & 1u))
               << (8 * count);
      sum += run_plus_one;
      used += length;
      ++count;
    }
    table[bits] = static_cast<std::uint64_t>(used) | count << 6 | sum << 9 |
                  codes << 16;
  }
  return table;
}();

// The passes, one kernel each. A pass that both computes and codes does
// so in two loops through a buffer of codes, run << 1 | sign (a run is
// below n < 2^26, so a code fits 32 bits): in one loop the state of both
// outgrows the registers, and the spilled counters then carry every code
// through memory. An encoder pass writes its bytes to `out`, sized for
// its worst case (encode_passes), and returns their count.

/// What a malformed pass breaks, or nullptr when it decoded.
using PassFault = const char*;

/// The significance pass of the plane whose positions have significance
/// row `row` in `rows` (significance_rows): the run of still-
/// insignificant positions before each newly significant one, then its
/// sign; a closing run ends the pass. Marks those positions in `newly`.
/// A position's rank among the insignificant is the insignificant
/// positions in earlier words plus those below it in its word.
template <class Bits>
std::size_t encode_significance_with(
    const std::uint8_t* rows, std::uint8_t row, const std::uint8_t* signs,
    const std::uint64_t* significant, std::size_t significant_count,
    std::size_t n, std::uint64_t* newly, std::uint32_t* codes,
    std::uint8_t* out) {
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
  BitSink sink(out);
  std::size_t i = 0;
  for (; i + 1 < count; i += 2) {
    int first = 0;
    int second = 0;
    const std::uint64_t a = code_bits(codes[i], first);
    const std::uint64_t b = code_bits(codes[i + 1], second);
    if (first + second <= 56) {
      sink.put_bits((a << second) | b, first + second);
    } else {
      sink.put_bits(a, first);
      sink.put_bits(b, second);
    }
  }
  if (i < count) {
    int length = 0;
    const std::uint64_t a = code_bits(codes[i], length);
    sink.put_bits(a, length);
  }
  sink.put_run(n - significant_count - run_start);
  return sink.size();
}

/// The refinement pass: this plane's bit of every position significant
/// before it, a dense word's in one put and a sparse word's one by one,
/// batched up to kBitBatch. Then merges `newly` into `significant` and
/// counts it in `significant_count`. `magnitudes` runs on to whole words,
/// padded with zeros.
template <class Bits>
std::size_t encode_refinement_with(
    const std::uint32_t* magnitudes, std::uint64_t* significant,
    const std::uint64_t* newly, std::size_t words, int plane,
    std::size_t& significant_count, std::uint8_t* out) {
  BitSink sink(out);
  std::uint64_t batch = 0;
  int batched = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t known = significant[w];
    const int count = Bits::popcount(known);
    if (count >= kWordRefinement) {
      if (batched > 0) {
        sink.put_bits(batch, batched);
        batch = 0;
        batched = 0;
      }
      sink.put_bits(
          Bits::gather(plane_mask(magnitudes + w * 64, plane), known, count),
          count);
      continue;
    }
    for (std::uint64_t bits = known; bits != 0; bits &= bits - 1) {
      const std::size_t index =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      batch = (batch << 1) | ((magnitudes[index] >> plane) & 1u);
      if (++batched == kBitBatch) {
        sink.put_bits(batch, batched);
        batch = 0;
        batched = 0;
      }
    }
  }
  sink.put_bits(batch, batched);
  for (std::size_t w = 0; w < words; ++w) {
    significant[w] |= newly[w];
    significant_count += static_cast<std::size_t>(Bits::popcount(newly[w]));
  }
  return sink.size();
}

/// Decode a significance pass over the `insignificant` positions left by
/// `significant`: mark the positions it makes significant in `newly` (all
/// zero on entry), and give them bit `plane` and their sign. A word none
/// of whose positions was significant before gets zero magnitudes and
/// signs first.
///
/// First the codes are read, up to the closing run: through kRunTable
/// while the next kPeekBits bits start with whole codes whose positions
/// all lie before the end, else one code at a time. A code takes a byte
/// of `codes`, which has room for `insignificant` + 8; one of kLongCode
/// or more takes kLongCode there and its value in `long_codes`, which
/// has room for insignificant / 128 (its run is at least 127). Then each
/// run skips that many insignificant positions: whole words by the count
/// of their zeros, then within word w to the zero of rank `rank`, where
/// `taken` zeros of w lie behind the cursor.
template <class Bits>
PassFault decode_significance_with(
    std::span<const std::uint8_t> blob, std::size_t insignificant,
    const std::uint64_t* significant, int plane, std::uint64_t* newly,
    std::uint32_t* magnitudes, std::uint8_t* signs, std::uint8_t* codes,
    std::uint32_t* long_codes) {
  BitReader bits(blob);
  std::size_t long_count = 0;
  std::size_t remaining = insignificant;
  std::size_t count = 0;
  while (remaining > 0) {
    std::uint64_t peek = 0;
    if (bits.peek_bits(kPeekBits, peek)) {
      const std::uint64_t entry = kRunTable[peek];
      // The sum is 0 when no whole code leads, and then wraps.
      const std::size_t sum = (entry >> 9) & 63;
      if (sum - 1 < remaining) {
        bits.skip_bits(static_cast<int>(entry & 63));
        remaining -= sum;
        std::uint64_t packed = entry >> 16;
        if constexpr (std::endian::native == std::endian::big) {
          packed = __builtin_bswap64(packed);
        }
        std::memcpy(codes + count, &packed, 8);
        count += (entry >> 6) & 7;
        continue;
      }
    }
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
    const auto code = static_cast<std::uint32_t>((run << 1) | sign);
    if (code < kLongCode) {
      codes[count++] = static_cast<std::uint8_t>(code);
    } else {
      codes[count++] = kLongCode;
      long_codes[long_count++] = code;
    }
  }

  // Clears word w if no position of it was significant: the word a
  // placement enters, and word 0 up front.
  const auto clear_fresh = [&](std::size_t w) {
    if (significant[w] != 0) return;
    std::fill_n(magnitudes + w * 64, 64, 0u);
    std::fill_n(signs + w * 64, 64, std::uint8_t{0});
  };
  if (count > 0) clear_fresh(0);
  std::size_t w = 0;
  typename Bits::Word open(~significant[0]);
  std::uint64_t open_count = open.count();
  std::uint64_t taken = 0;
  std::uint64_t found = 0;  // newly bits of word w
  const std::uint32_t* next_long = long_codes;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t code = codes[i];
    if (code == kLongCode) code = *next_long++;
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
      clear_fresh(w);
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
  std::size_t (*encode_significance)(const std::uint8_t*, std::uint8_t,
                                     const std::uint8_t*, const std::uint64_t*,
                                     std::size_t, std::size_t, std::uint64_t*,
                                     std::uint32_t*, std::uint8_t*);
  std::size_t (*encode_refinement)(const std::uint32_t*, std::uint64_t*,
                                   const std::uint64_t*, std::size_t, int,
                                   std::size_t&, std::uint8_t*);
  PassFault (*decode_significance)(std::span<const std::uint8_t>, std::size_t,
                                   const std::uint64_t*, int, std::uint64_t*,
                                   std::uint32_t*, std::uint8_t*,
                                   std::uint8_t*, std::uint32_t*);
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
[[COLLABQOS_BMI2_TARGET, gnu::flatten]] std::size_t encode_significance_bmi2(
    const std::uint8_t* rows, std::uint8_t row, const std::uint8_t* signs,
    const std::uint64_t* significant, std::size_t significant_count,
    std::size_t n, std::uint64_t* newly, std::uint32_t* codes,
    std::uint8_t* out) {
  return encode_significance_with<Bmi2Bits>(rows, row, signs, significant,
                                            significant_count, n, newly, codes,
                                            out);
}
[[COLLABQOS_BMI2_TARGET, gnu::flatten]] std::size_t encode_refinement_bmi2(
    const std::uint32_t* magnitudes, std::uint64_t* significant,
    const std::uint64_t* newly, std::size_t words, int plane,
    std::size_t& significant_count, std::uint8_t* out) {
  return encode_refinement_with<Bmi2Bits>(magnitudes, significant, newly,
                                          words, plane, significant_count, out);
}
[[COLLABQOS_BMI2_TARGET, gnu::flatten]] PassFault decode_significance_bmi2(
    std::span<const std::uint8_t> blob, std::size_t insignificant,
    const std::uint64_t* significant, int plane, std::uint64_t* newly,
    std::uint32_t* magnitudes, std::uint8_t* signs, std::uint8_t* codes,
    std::uint32_t* long_codes) {
  return decode_significance_with<Bmi2Bits>(blob, insignificant, significant,
                                            plane, newly, magnitudes, signs,
                                            codes, long_codes);
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

/// The coded passes, back to back in the scratch's stream: pass i is
/// bytes [ends[i - 1], ends[i]). Two per plane, and a plane is below 32.
struct Passes {
  const std::uint8_t* bytes = nullptr;
  std::array<std::size_t, 64> ends{};
  std::size_t count = 0;

  [[nodiscard]] std::span<const std::uint8_t> operator[](std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return {bytes + begin, ends[i] - begin};
  }
};

/// All passes of `set`, two per plane from the top. The codes of a pass
/// take the scratch's samples, which flatten has consumed. Each pass gets
/// room for its worst case: a significance code takes 2 * bit_width(run +
/// 1) <= 2 * (run + 1) bits and the closing run 2 * bit_width(run + 1) - 1,
/// so a pass over `open` positions takes at most 2 * open + 2 bits; a
/// refinement pass takes one bit per significant position.
Passes encode_passes(const CoefficientSet& set, const Kernels& kernels,
                     detail::Scratch& scratch) {
  const std::size_t n = set.size;
  const std::size_t words = (n + 63) / 64;
  std::uint8_t* const rows = scratch.rows.get(words * 64);
  significance_rows(set.magnitudes, n, words, rows);
  std::uint64_t* const significant = scratch.significant.zeroed(words);
  std::uint64_t* const newly = scratch.newly.zeroed(words);
  auto* const codes = reinterpret_cast<std::uint32_t*>(scratch.samples.get(n));
  std::size_t significant_count = 0;
  Passes passes;
  std::size_t used = 0;
  // Room for a pass of at most `bits` bits after the `used` bytes so far,
  // and the word BitSink stores past its end.
  const auto room = [&](std::size_t bits) {
    return scratch.stream.keep(used + bits / 8 + 1 + 8, used) + used;
  };
  for (int plane = set.top_plane; plane >= 0; --plane) {
    used += kernels.encode_significance(
        rows, static_cast<std::uint8_t>(plane + 1), set.signs, significant,
        significant_count, n, newly, codes,
        room(2 * (n - significant_count) + 2));
    passes.ends[passes.count++] = used;
    used += kernels.encode_refinement(set.magnitudes, significant, newly,
                                      words, plane, significant_count,
                                      room(significant_count));
    passes.ends[passes.count++] = used;
  }
  passes.bytes = scratch.stream.data();
  return passes;
}

/// Group `passes` into at most `max_packets` packets, preserving order.
/// Early passes are tiny, so grouping merges from the front to keep the
/// largest (finest) passes in their own packets.
std::vector<serde::Bytes> frame_packets(const Passes& passes,
                                        int max_packets) {
  const std::size_t pass_count = passes.count;
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
    // A varint takes at most 10 bytes.
    const std::size_t bytes = passes.ends[cursor + group - 1] -
                              (cursor == 0 ? 0 : passes.ends[cursor - 1]);
    serde::Writer w(bytes + 10 * (group + 1));
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
  const Passes passes = encode_passes(set, kernels, *scratch);
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
  // The bitmap of encode_passes. `newly` marks what the last significance
  // pass found until the refinement pass after it merges it in. The
  // magnitudes and signs are zeroed a word at a time (decode_significance)
  // and so run on to whole words.
  const std::size_t words = (n + 63) / 64;
  std::uint32_t* const magnitudes = scratch->magnitudes.get(words * 64);
  std::uint8_t* const signs = scratch->signs.get(words * 64);
  std::uint64_t* const significant = scratch->significant.zeroed(words);
  std::uint64_t* const newly = scratch->newly.zeroed(words);
  std::size_t significant_count = 0;
  // Lowest plane whose bit is known, for the positions of each bitmap.
  int significant_plane = 0;
  int newly_plane = 0;
  bool refined = false;
  // The samples of the inverse transform. Until the scatter, the buffer
  // holds a significance pass's codes between reading and placing them:
  // n + 8 bytes of codes, then at most n / 128 long ones, which fit
  // n + kTableCodes samples.
  std::int32_t* const samples = scratch->samples.get(n + kTableCodes);
  auto* const codes = reinterpret_cast<std::uint8_t*>(samples);
  auto* const long_codes =
      reinterpret_cast<std::uint32_t*>(samples + (n + 8 + 3) / 4);

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
                magnitudes, signs, codes, long_codes)) {
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
        refined = true;
        doing_significance = true;
        --plane;
      }
    }
  }

  // Scan order back to channel planes, with the mid-interval estimate
  // for coefficients whose lower bits are unknown; each plane is inverted
  // in place with one scratch plane.
  // After a refinement pass every marked position is significant, known
  // to significant_plane. After a significance pass, its positions hold
  // exactly 1 << newly_plane, and the earlier ones a bit above it (when a
  // refinement pass has run at all).
  const auto half = [](int lowest) {
    return lowest > 0 ? 1u << (lowest - 1) : 0u;
  };
  Known known{magnitudes, signs, significant, newly, 0,
              half(significant_plane), half(significant_plane)};
  if (!doing_significance) {
    known.newly_half = half(newly_plane);
    if (refined) {
      known.old_shift = newly_plane + 1;
    } else {
      known.old_half = known.newly_half;
    }
  }
  const auto rects = scan_rects(h.width, h.height, h.levels, h.raster_scan);
  std::int32_t* const plane_scratch = scratch->haar_plane.get(per_channel);
  for (int c = 0; c < h.channels; ++c) {
    const std::size_t base = static_cast<std::size_t>(c) * per_channel;
    std::int32_t* data = samples + base;
    for_each_scan_row(rects, h.width,
                      [&](std::size_t k, std::size_t i, std::size_t length) {
                        scatter_row(known, base + k, data + i, length);
                      });
    inverse_haar_inplace(data, h.width, h.height, h.levels, plane_scratch);
  }

  Image image(h.width, h.height, h.channels);
  std::uint8_t* pixels = image.pixels().data();
  if (h.channels == 1) {
    clamp_to_bytes(samples, pixels, per_channel);
    return image;
  }
  std::int32_t* p0 = samples;
  std::int32_t* p1 = p0 + per_channel;
  std::int32_t* p2 = p1 + per_channel;
  if (h.ycocg) {
    for (std::size_t p = 0; p < per_channel; ++p) ycocg_inverse(p0[p], p1[p], p2[p]);
  }
  // Each channel clamped a block at a time, then interleaved.
  constexpr std::size_t kBlock = 256;
  std::array<std::array<std::uint8_t, kBlock>, 3> block;
  for (std::size_t at = 0; at < per_channel; at += kBlock) {
    const std::size_t count = std::min(kBlock, per_channel - at);
    clamp_to_bytes(p0 + at, block[0].data(), count);
    clamp_to_bytes(p1 + at, block[1].data(), count);
    clamp_to_bytes(p2 + at, block[2].data(), count);
    for (std::size_t p = 0; p < count; ++p) {
      pixels[(at + p) * 3] = block[0][p];
      pixels[(at + p) * 3 + 1] = block[1][p];
      pixels[(at + p) * 3 + 2] = block[2][p];
    }
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
