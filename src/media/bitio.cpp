#include "collabqos/media/bitio.hpp"

#include <algorithm>
#include <cassert>

namespace collabqos::media {

void BitWriter::put_bits_slow(std::uint64_t value, int count) {
  assert(count <= 64 && count >= 64 - used_);
  // Fill the accumulator to 64 bits, write it out, keep the rest.
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

std::vector<std::uint8_t> BitWriter::finish() {
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

void BitReader::refill_tail() noexcept {
  while (avail_ <= 56 && next_ < data_.size()) {
    acc_ |= static_cast<std::uint64_t>(data_[next_++]) << (56 - avail_);
    avail_ += 8;
  }
}

std::uint64_t BitReader::get_gamma_slow() {
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

}  // namespace collabqos::media
