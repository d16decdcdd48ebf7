#include "collabqos/serde/chain.hpp"

#include <bit>
#include <cstring>

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

// --------------------------------------------------------- ChainReader

Status ChainReader::need(std::size_t n) const noexcept {
  if (remaining() < n) {
    return Status(Errc::malformed, "truncated input");
  }
  return {};
}

void ChainReader::read_raw(std::uint8_t* out, std::size_t n) noexcept {
  offset_ += n;
  while (n > 0) {
    const SharedBytes& cur = slices_[slice_];
    const std::size_t avail = cur.size() - pos_;
    const std::size_t take = n < avail ? n : avail;
    std::memcpy(out, cur.data() + pos_, take);
    out += take;
    pos_ += take;
    n -= take;
    if (pos_ == cur.size()) {
      ++slice_;
      pos_ = 0;
    }
  }
}

template <typename T>
Result<T> ChainReader::scalar() {
  if (auto s = need(sizeof(T)); !s) return s.error();
  // Little-endian wire order matches the host on every platform this
  // project targets; Reader assembles bytes explicitly, but here one
  // memcpy per scalar keeps the cross-slice path simple.
  std::uint8_t raw[sizeof(T)];
  read_raw(raw, sizeof(T));
  T v{};
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | static_cast<T>(static_cast<T>(raw[i]) << (8 * i)));
  }
  return v;
}

Result<std::uint8_t> ChainReader::u8() {
  if (auto s = need(1); !s) return s.error();
  const SharedBytes& cur = slices_[slice_];
  const std::uint8_t v = cur.data()[pos_];
  ++offset_;
  if (++pos_ == cur.size()) {
    ++slice_;
    pos_ = 0;
  }
  return v;
}

Result<std::uint16_t> ChainReader::u16() { return scalar<std::uint16_t>(); }
Result<std::uint32_t> ChainReader::u32() { return scalar<std::uint32_t>(); }
Result<std::uint64_t> ChainReader::u64() { return scalar<std::uint64_t>(); }

Result<std::uint64_t> ChainReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    auto byte = u8();
    if (!byte) return byte.error();
    v |= static_cast<std::uint64_t>(byte.value() & 0x7f) << shift;
    if ((byte.value() & 0x80) == 0) {
      if (i == 9 && byte.value() > 1) {
        return Error{Errc::malformed, "varint overflow"};
      }
      return v;
    }
    shift += 7;
  }
  return Error{Errc::malformed, "varint too long"};
}

Result<std::int64_t> ChainReader::svarint() {
  auto raw = varint();
  if (!raw) return raw.error();
  const std::uint64_t u = raw.value();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

Result<double> ChainReader::f64() {
  auto raw = u64();
  if (!raw) return raw.error();
  return std::bit_cast<double>(raw.value());
}

Result<bool> ChainReader::boolean() {
  auto raw = u8();
  if (!raw) return raw.error();
  if (raw.value() > 1) return Error{Errc::malformed, "bad boolean"};
  return raw.value() == 1;
}

Result<std::string> ChainReader::string() {
  auto len = varint();
  if (!len) return len.error();
  if (auto s = need(len.value()); !s) return s.error();
  std::string out(len.value(), '\0');
  read_raw(reinterpret_cast<std::uint8_t*>(out.data()), len.value());
  return out;
}

Result<Bytes> ChainReader::blob() {
  auto len = varint();
  if (!len) return len.error();
  if (auto s = need(len.value()); !s) return s.error();
  Bytes out(len.value());
  read_raw(out.data(), len.value());
  return out;
}

Result<ByteChain> ChainReader::view(std::size_t n) {
  if (auto s = need(n); !s) return s.error();
  ByteChain out;
  std::size_t count = n;
  offset_ += n;
  while (count > 0) {
    const SharedBytes& cur = slices_[slice_];
    const std::size_t avail = cur.size() - pos_;
    const std::size_t take = count < avail ? count : avail;
    out.append(cur.slice(pos_, take));
    pos_ += take;
    count -= take;
    if (pos_ == cur.size()) {
      ++slice_;
      pos_ = 0;
    }
  }
  return out;
}

Result<ByteChain> ChainReader::view_blob() {
  auto len = varint();
  if (!len) return len.error();
  return view(len.value());
}

Status ChainReader::skip(std::size_t n) {
  if (auto s = need(n); !s) return s;
  offset_ += n;
  while (n > 0) {
    const SharedBytes& cur = slices_[slice_];
    const std::size_t avail = cur.size() - pos_;
    const std::size_t take = n < avail ? n : avail;
    pos_ += take;
    n -= take;
    if (pos_ == cur.size()) {
      ++slice_;
      pos_ = 0;
    }
  }
  return {};
}

}  // namespace collabqos::serde
