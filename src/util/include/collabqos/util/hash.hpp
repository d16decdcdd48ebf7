// Small deterministic hashing helpers shared across layers: FNV-1a for
// payload digests and run fingerprints (the chaos harness), and a
// SplitMix64-style finaliser for deriving independent RNG seeds from
// (seed, id, ...) tuples without any shared mutable state. The RTP wire
// checksum is CRC-32C (crc32c.hpp), not FNV-1a.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace collabqos {

/// Incremental 64-bit FNV-1a. Feed bytes in any grouping; the digest
/// depends only on the byte sequence.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  constexpr void update(std::uint8_t byte) noexcept {
    state_ ^= byte;
    state_ *= kPrime;
  }
  constexpr void update(std::span<const std::uint8_t> bytes) noexcept {
    for (const std::uint8_t byte : bytes) update(byte);
  }
  constexpr void update(std::string_view text) noexcept {
    for (const char c : text) update(static_cast<std::uint8_t>(c));
  }
  constexpr void update_u64(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
      update(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  [[nodiscard]] constexpr std::uint64_t value() const noexcept {
    return state_;
  }
  /// 64-bit digest folded to 32 bits (xor-fold), for compact wire fields.
  [[nodiscard]] constexpr std::uint32_t value32() const noexcept {
    return static_cast<std::uint32_t>(state_ ^ (state_ >> 32));
  }

 private:
  std::uint64_t state_ = kOffset;
};

[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::span<const std::uint8_t> bytes) noexcept {
  Fnv1a hash;
  hash.update(bytes);
  return hash.value();
}

/// SplitMix64 finaliser: bijective avalanche mix of a 64-bit word.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Derive an independent seed from a base seed and up to two stream
/// identifiers. Same inputs -> same seed, on every platform; used to give
/// each link / chaos event its own RNG stream with no shared state.
[[nodiscard]] constexpr std::uint64_t derive_seed(
    std::uint64_t seed, std::uint64_t stream, std::uint64_t salt = 0) noexcept {
  return mix64(mix64(seed ^ 0xa5a5a5a55a5a5a5aULL) ^ mix64(stream) ^
               mix64(~salt));
}

}  // namespace collabqos
