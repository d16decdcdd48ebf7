// Bit-level I/O with Elias-gamma run lengths — the entropy backend of the
// progressive codec's significance coding. Bits are MSB first within each
// byte. Both ends work through a 64-bit accumulator, so a gamma code costs
// one count-leading-zeros and a shift, not a call per bit.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace collabqos::media {

class BitWriter {
 public:
  void put(bool bit) { put_bits(bit ? 1u : 0u, 1); }
  /// `value`, which must be below 2^count, in `count` bits (0..64), MSB
  /// first.
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
  /// Elias-gamma code for n >= 1: (width - 1) zeros, then n in width bits.
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
  /// Run-length: gamma(run+1) so zero-length runs are representable.
  void put_run(std::uint64_t run) { put_gamma(run + 1); }

  /// Flush partial byte (zero-padded) and return the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  void put_bits_slow(std::uint64_t value, int count);

  std::vector<std::uint8_t> buffer_;
  std::uint64_t acc_ = 0;  ///< the low used_ bits are pending output
  int used_ = 0;           ///< always < 64 between calls
};

/// Reads what BitWriter wrote. A read past the end latches the reader into
/// a failed state and returns zeros from then on, so decoders check ok()
/// where a value steers them, not a result per bit. A gamma code longer
/// than 63 zeros also fails the reader.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] bool get() { return get_bits(1) != 0; }
  /// `count` bits (0..56), MSB first.
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
    // Bits past avail_ are still stream bits (or zero at the end), so a
    // leading-zero count below avail_ is exact.
    const int zeros = std::countl_zero(acc_);
    if (2 * zeros + 1 > avail_) return get_gamma_slow();
    acc_ <<= zeros;
    const std::uint64_t value = acc_ >> (63 - zeros);
    acc_ = acc_ << zeros << 1;
    avail_ -= 2 * zeros + 1;
    return value;
  }
  [[nodiscard]] std::uint64_t get_run() { return get_gamma() - 1; }

  /// False once any read ran past the data or met an over-long gamma code.
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  /// Top up the accumulator to at least 56 bits, or to the end of data.
  void refill() noexcept {
    if (data_.size() - next_ < 8) return refill_tail();
    // Load 8 bytes and keep the whole ones that fit. The bits of the
    // partly fitting byte land below avail_; the next refill ORs the same
    // bits again, so they need no masking.
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
  void refill_tail() noexcept;
  std::uint64_t get_gamma_slow();
  std::uint64_t fail() noexcept {
    ok_ = false;
    acc_ = 0;
    avail_ = 0;
    next_ = data_.size();
    return 0;
  }

  std::span<const std::uint8_t> data_;
  std::size_t next_ = 0;   ///< next byte not yet counted in avail_
  std::uint64_t acc_ = 0;  ///< unread bits, left-aligned
  int avail_ = 0;          ///< valid bits at the top of acc_
  bool ok_ = true;
};

}  // namespace collabqos::media
