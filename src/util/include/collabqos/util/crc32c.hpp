// CRC-32C (Castagnoli: reflected polynomial 0x82F63B78, initial value and
// final xor ~0, as in iSCSI and SCTP). It detects every error burst of 32
// bits or less, so every single-bit error, where a hash detects them only
// with high probability. On x86-64 CPUs with SSE4.2 it runs on the `crc32`
// instruction, 8 bytes per step; everywhere else on a slicing-by-8 table.
// The choice is made once, from the CPU, and both give the same value.
#pragma once

#include <cstdint>
#include <span>

namespace collabqos {

/// Continue a CRC-32C register (the un-inverted running state) over
/// `bytes`, on the fastest path this CPU has.
[[nodiscard]] std::uint32_t crc32c_extend(
    std::uint32_t state, std::span<const std::uint8_t> bytes) noexcept;

/// The portable slicing-by-8 path: the only one on CPUs without the
/// instruction, and the reference the hardware path is tested against.
[[nodiscard]] std::uint32_t crc32c_extend_portable(
    std::uint32_t state, std::span<const std::uint8_t> bytes) noexcept;

/// Whether this CPU has the SSE4.2 `crc32` instruction (never off x86-64).
[[nodiscard]] bool crc32c_hardware_available() noexcept;

/// The SSE4.2 path. Call only when crc32c_hardware_available().
[[nodiscard]] std::uint32_t crc32c_extend_hardware(
    std::uint32_t state, std::span<const std::uint8_t> bytes) noexcept;

/// Incremental CRC-32C. Feed bytes in any grouping; the checksum depends
/// only on the byte sequence.
class Crc32c {
 public:
  void update(std::span<const std::uint8_t> bytes) noexcept {
    state_ = crc32c_extend(state_, bytes);
  }

  [[nodiscard]] std::uint32_t value() const noexcept { return ~state_; }

 private:
  std::uint32_t state_ = ~std::uint32_t{0};
};

}  // namespace collabqos
