#include "collabqos/serde/chain.hpp"


namespace collabqos::serde {

void Writer::blob(const ByteChain& v) {
  varint(v.size());
  for (const SharedBytes& slice : v.slices()) {
    buffer_.insert(buffer_.end(), slice.begin(), slice.end());
  }
}

void ByteChain::append(SharedBytes slice) {
  if (slice.empty()) return;
  size_ += slice.size();
  if (count_ > 0) {
    SharedBytes& tail = last();
    // Coalesce a slice that continues the previous one within the same
    // backing buffer: in-order reassembly of one encode's fragments
    // collapses back to a single contiguous view. Pointer adjacency
    // alone is not enough — distinct buffers can abut by accident, and
    // a merged view must be covered by one storage reference.
    if (tail.shares_storage(slice) &&
        tail.data() + tail.size() == slice.data()) {
      tail = SharedBytes(tail.data_, tail.offset_, tail.size_ + slice.size_);
      return;
    }
  }
  push(std::move(slice));
}

void ByteChain::push(SharedBytes slice) {
  if (count_ < kInlineSlices) {
    inline_[count_++] = std::move(slice);
    return;
  }
  if (count_ == kInlineSlices) {
    spilled_.reserve(2 * kInlineSlices);
    for (SharedBytes& held : inline_) spilled_.push_back(std::move(held));
    inline_ = {};
  }
  spilled_.push_back(std::move(slice));
  ++count_;
}

void ByteChain::append(const ByteChain& chain) {
  for (const SharedBytes& slice : chain.slices()) append(slice);
}

std::uint8_t ByteChain::operator[](std::size_t i) const noexcept {
  for (const SharedBytes& slice : slices()) {
    if (i < slice.size()) return slice.data()[i];
    i -= slice.size();
  }
  return 0;
}

ByteChain ByteChain::slice(std::size_t offset, std::size_t len) const {
  if (count_ == 1) return ByteChain(inline_.front().slice(offset, len));
  const std::size_t begin = offset < size_ ? offset : size_;
  std::size_t count = len < size_ - begin ? len : size_ - begin;
  ByteChain out;
  std::size_t skip = begin;
  for (const SharedBytes& piece : slices()) {
    if (count == 0) break;
    if (skip >= piece.size()) {
      skip -= piece.size();
      continue;
    }
    const std::size_t take =
        count < piece.size() - skip ? count : piece.size() - skip;
    out.append(piece.slice(skip, take));
    count -= take;
    skip = 0;
  }
  return out;
}

Bytes ByteChain::gather() const {
  Bytes out;
  out.reserve(size_);
  for (const SharedBytes& slice : slices()) {
    out.insert(out.end(), slice.begin(), slice.end());
  }
  return out;
}

SharedBytes ByteChain::flatten(std::size_t* copied) const {
  if (count_ == 0) {
    if (copied != nullptr) *copied = 0;
    return SharedBytes{};
  }
  if (count_ == 1) {
    if (copied != nullptr) *copied = 0;
    return inline_.front();
  }
  if (copied != nullptr) *copied = size_;
  return SharedBytes(gather());
}

bool operator==(const ByteChain& a, const ByteChain& b) noexcept {
  if (a.size() != b.size()) return false;
  return std::equal(a.begin(), a.end(), b.begin());
}

bool operator==(const ByteChain& a,
                std::span<const std::uint8_t> b) noexcept {
  if (a.size() != b.size()) return false;
  return std::equal(b.begin(), b.end(), a.begin());
}

}  // namespace collabqos::serde
