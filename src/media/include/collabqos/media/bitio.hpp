// Bit-level I/O with Elias-gamma run lengths — the entropy backend of the
// progressive codec's significance coding. Bits are MSB first within each
// byte. Both ends work through a 64-bit accumulator, so a gamma code costs
// one count-leading-zeros and a shift, not a call per bit, and a reader
// takes a run and the bit after it (a significance position and its sign)
// in one extraction.
//
// Every member is inline and none passes `this` to a function that is not,
// so a reader or writer local to a loop lives in registers: an object
// whose address escapes is reloaded from memory after every store the
// compiler cannot tell apart from it.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace collabqos::media {

/// MSB-first bits into memory the caller owns, sized for everything it
/// will put plus the 8 bytes each put stores at once: there is no capacity
/// check, so a pass whose worst case is known writes without one.
class BitSink {
 public:
  explicit BitSink(std::uint8_t* out) noexcept : out_(out) {}

  void put(bool bit) noexcept { put_bits(bit ? 1u : 0u, 1); }
  /// `value`, which must be below 2^count, in `count` bits (0..64), MSB
  /// first.
  void put_bits(std::uint64_t value, int count) noexcept {
    assert(count >= 0 && count <= 64);
    assert(count == 64 || value >> count == 0);
    if (count > kMaxPut) {
      put_short(value >> 32, count - 32);
      value &= 0xffffffffu;
      count = 32;
    }
    put_short(value, count);
  }
  /// Elias-gamma code for n >= 1: (width - 1) zeros, then n in width bits.
  void put_gamma(std::uint64_t n) noexcept {
    assert(n >= 1);
    const int width = std::bit_width(n);
    if (2 * width - 1 <= kMaxPut) {
      put_short(n, 2 * width - 1);
    } else {
      put_bits(0, width - 1);
      put_bits(n, width);
    }
  }
  /// Run-length: gamma(run+1) so zero-length runs are representable.
  void put_run(std::uint64_t run) noexcept { put_gamma(run + 1); }

  /// The bytes written so far, a partial last one zero-padded (it is
  /// already stored).
  [[nodiscard]] std::size_t size() const noexcept {
    return size_ + (used_ > 0 ? 1 : 0);
  }
  /// Carry on in `out`, which holds a copy of what was written.
  void move_to(std::uint8_t* out) noexcept { out_ = out; }

 private:
  /// Longest put that fits beside the at most 7 pending bits.
  static constexpr int kMaxPut = 56;

  /// `count` <= kMaxPut bits. The accumulator is stored out, as 8
  /// big-endian bytes, after every put: its whole bytes are final, and the
  /// next store rewrites the partial one.
  void put_short(std::uint64_t value, int count) noexcept {
    assert(count >= 0 && count <= kMaxPut && used_ < 8);
    acc_ |= value << (63 - used_ - count) << 1;
    used_ += count;
    std::uint64_t word = acc_;
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(out_ + size_, &word, 8);
    const int whole = used_ & ~7;
    size_ += static_cast<std::size_t>(whole >> 3);
    acc_ <<= whole;
    used_ &= 7;
  }

  std::uint8_t* out_;
  std::size_t size_ = 0;   ///< whole bytes written
  std::uint64_t acc_ = 0;  ///< the top used_ bits are pending output
  int used_ = 0;           ///< always < 8 between calls
};

/// A BitSink into a buffer of its own that grows as it fills.
class BitWriter {
 public:
  void put(bool bit) { put_bits(bit ? 1u : 0u, 1); }
  void put_bits(std::uint64_t value, int count) {
    make_room();
    sink_.put_bits(value, count);
  }
  void put_gamma(std::uint64_t n) {
    make_room();
    sink_.put_gamma(n);
  }
  void put_run(std::uint64_t run) { put_gamma(run + 1); }

  /// Flush partial byte (zero-padded) and return the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish() {
    buffer_.resize(sink_.size());
    std::vector<std::uint8_t> out = std::move(buffer_);
    *this = BitWriter();
    return out;
  }

 private:
  /// One put stores at most 16 bytes past the whole ones written.
  void make_room() {
    if (buffer_.size() - sink_.size() < 16) {
      buffer_.resize(std::max<std::size_t>(64, 2 * buffer_.size()));
      sink_.move_to(buffer_.data());
    }
  }

  std::vector<std::uint8_t> buffer_;
  BitSink sink_{nullptr};
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
    // Two shifts keep count == 0 defined.
    const std::uint64_t value = acc_ >> (63 - count) >> 1;
    acc_ <<= count;
    avail_ -= count;
    return value;
  }
  [[nodiscard]] std::uint64_t get_gamma() {
    if (avail_ < 32) refill();
    // Bits past avail_ are still stream bits (or zero at the end), so a
    // leading-zero count below avail_ is exact. The OR caps the count at
    // 63, which only ever sends the slow path, without a zero check.
    const int zeros = std::countl_zero(acc_ | 1);
    if (2 * zeros + 1 > avail_) return get_gamma_slow();
    const std::uint64_t value = acc_ >> (63 - 2 * zeros);
    acc_ <<= 2 * zeros + 1;
    avail_ -= 2 * zeros + 1;
    return value;
  }
  [[nodiscard]] std::uint64_t get_run() { return get_gamma() - 1; }
  /// get_run() then get(), as one read; the bit lands in `bit`. When the
  /// data ends right after the run, `bit` is 2 and the reader stays ok: a
  /// closing run has no bit after it.
  [[nodiscard]] std::uint64_t get_run_bit(unsigned& bit) {
    if (avail_ < 32) refill();
    const int zeros = std::countl_zero(acc_ | 1);
    const int length = 2 * zeros + 2;
    if (length > avail_) return get_run_bit_slow(bit);
    const std::uint64_t code = acc_ >> (64 - length);
    acc_ <<= length;
    avail_ -= length;
    bit = static_cast<unsigned>(code & 1);
    return (code >> 1) - 1;
  }

  /// The next `count` bits (1..32) into `value` without reading them, when
  /// the data still holds that many; false, and `value` untouched,
  /// otherwise.
  [[nodiscard]] bool peek_bits(int count, std::uint64_t& value) noexcept {
    assert(count >= 1 && count <= 32);
    if (avail_ < 32) refill();
    if (avail_ < count) return false;
    value = acc_ >> (64 - count);
    return true;
  }
  /// Read `count` bits that a successful peek_bits just showed.
  void skip_bits(int count) noexcept {
    assert(count >= 0 && count <= avail_);
    acc_ <<= count;
    avail_ -= count;
  }

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
  void refill_tail() noexcept {
    while (avail_ < 56 && next_ < data_.size()) {
      acc_ |= static_cast<std::uint64_t>(data_[next_++]) << (56 - avail_);
      avail_ += 8;
    }
  }
  std::uint64_t get_gamma_slow() {
    int zeros = 0;
    while (!get()) {
      if (!ok_) return 0;
      if (++zeros > 63) return fail();  // gamma code too long
    }
    std::uint64_t value = 1;
    for (int left = zeros; left > 0;) {
      const int chunk = std::min(left, 32);
      value = (value << chunk) | get_bits(chunk);
      left -= chunk;
    }
    return ok_ ? value : 0;
  }
  std::uint64_t get_run_bit_slow(unsigned& bit) {
    const std::uint64_t run = get_run();
    bit = 0;
    if (!ok_) return run;
    if (avail_ == 0) refill();
    bit = avail_ == 0 ? 2 : static_cast<unsigned>(get_bits(1));
    return run;
  }
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
