#include "collabqos/util/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace collabqos {

namespace {
constexpr std::uint32_t kPolynomial = 0x82F63B78;  // reflected 0x1EDC6F41

using Table = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kTable[0] advances the register by one byte;
/// kTable[k][b] is the register after byte b followed by k zero bytes.
constexpr Table make_table() noexcept {
  Table table{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
    }
    table[0][b] = crc;
  }
  for (std::size_t k = 1; k < table.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = table[k - 1][b];
      table[k][b] = (prev >> 8) ^ table[0][prev & 0xff];
    }
  }
  return table;
}

constexpr Table kTable = make_table();

constexpr std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
}  // namespace

std::uint32_t crc32c_extend_portable(
    std::uint32_t state, std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = state ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    state = kTable[7][lo & 0xff] ^ kTable[6][(lo >> 8) & 0xff] ^
            kTable[5][(lo >> 16) & 0xff] ^ kTable[4][lo >> 24] ^
            kTable[3][hi & 0xff] ^ kTable[2][(hi >> 8) & 0xff] ^
            kTable[1][(hi >> 16) & 0xff] ^ kTable[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = (state >> 8) ^ kTable[0][(state ^ *p) & 0xff];
  }
  return state;
}

#if defined(__x86_64__)
bool crc32c_hardware_available() noexcept {
  // May run during static initialisation, before the runtime's own CPU
  // probe; __builtin_cpu_init is idempotent.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_extend_hardware(
    std::uint32_t state, std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t wide = state;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);  // x86-64 is little-endian
    wide = _mm_crc32_u64(wide, word);
  }
  state = static_cast<std::uint32_t>(wide);
  for (; n > 0; ++p, --n) state = _mm_crc32_u8(state, *p);
  return state;
}
#else
bool crc32c_hardware_available() noexcept { return false; }

std::uint32_t crc32c_extend_hardware(
    std::uint32_t state, std::span<const std::uint8_t> bytes) noexcept {
  return crc32c_extend_portable(state, bytes);  // never selected here
}
#endif

std::uint32_t crc32c_extend(std::uint32_t state,
                            std::span<const std::uint8_t> bytes) noexcept {
  static const auto extend = crc32c_hardware_available()
                                 ? &crc32c_extend_hardware
                                 : &crc32c_extend_portable;
  return extend(state, bytes);
}

}  // namespace collabqos
