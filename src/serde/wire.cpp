#include "collabqos/serde/wire.hpp"

#include <cassert>

#include "collabqos/serde/chain.hpp"

namespace collabqos::serde {

namespace {
/// Appends the low `n` bytes of `v`, least significant first.
void put_le(Bytes& out, std::uint64_t v, std::size_t n) {
  std::uint8_t bytes[8];
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  out.insert(out.end(), bytes, bytes + n);
}
}  // namespace

void Writer::u16(std::uint16_t v) { put_le(buffer_, v, 2); }

void Writer::u32(std::uint32_t v) { put_le(buffer_, v, 4); }

void Writer::u64(std::uint64_t v) { put_le(buffer_, v, 8); }

void Writer::varint(std::uint64_t v) {
  std::uint8_t bytes[10];
  std::size_t n = 0;
  while (v >= 0x80) {
    bytes[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  bytes[n++] = static_cast<std::uint8_t>(v);
  buffer_.insert(buffer_.end(), bytes, bytes + n);
}

void Writer::svarint(std::int64_t v) {
  const auto raw = static_cast<std::uint64_t>(v);
  varint((raw << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void Writer::f64(double v) {
  u64(std::bit_cast<std::uint64_t>(v));
}

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::string(std::string_view v) {
  varint(v.size());
  const auto* begin = reinterpret_cast<const std::uint8_t*>(v.data());
  buffer_.insert(buffer_.end(), begin, begin + v.size());
}

void Writer::blob(std::span<const std::uint8_t> v) {
  varint(v.size());
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

// ------------------------------------------------------------------ Reader

namespace {
constexpr std::string_view kTruncated = "truncated input";
}

Reader::Reader(const ByteChain& chain) noexcept
    : Reader(std::span<const std::uint8_t>{}) {
  const std::span<const SharedBytes> slices = chain.slices();
  size_ = chain.size();
  if (slices.empty()) return;
  slice_ = slices.data();
  last_ = slices.data() + slices.size() - 1;
  begin_ = cur_ = slice_->data();
  end_ = begin_ + slice_->size();
}

void Reader::fail_at(std::size_t offset, Errc code,
                     std::string_view message) {
  assert(code != Errc::ok);
  if (!ok()) return;
  failed_at_ = offset;
  error_ = Error{code, std::string(message)};
  // Every later read now finds an empty slice and no next one.
  cur_ = end_;
  last_ = slice_;
}

void Reader::fail(Errc code, std::string_view message) {
  fail_at(offset(), code, message);
}

bool Reader::next_slice() noexcept {
  if (slice_ == last_) return false;
  consumed_ += static_cast<std::size_t>(end_ - begin_);
  ++slice_;
  begin_ = cur_ = slice_->data();
  end_ = begin_ + slice_->size();  // a chain stores no empty slices
  return true;
}

bool Reader::read_slow(std::uint8_t* out, std::size_t n) noexcept {
  if (n > remaining()) {
    fail_at(offset(), Errc::malformed, kTruncated);
    return false;
  }
  while (n > 0) {
    if (cur_ == end_) (void)next_slice();
    const std::size_t take =
        std::min(n, static_cast<std::size_t>(end_ - cur_));
    if (out != nullptr) {
      std::memcpy(out, cur_, take);
      out += take;
    }
    cur_ += take;
    n -= take;
  }
  return true;
}

std::uint64_t Reader::varint_slow() noexcept {
  const std::size_t start = offset();
  std::uint64_t v = 0;
  for (int i = 0; i < 10; ++i) {
    if (cur_ == end_ && !next_slice()) {
      fail_at(start, Errc::malformed, kTruncated);
      return 0;
    }
    const std::uint8_t byte = *cur_++;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      if (i == 9 && byte > 1) {
        fail_at(start, Errc::malformed, "varint overflow");
        return 0;
      }
      return v;
    }
  }
  fail_at(start, Errc::malformed, "varint too long");
  return 0;
}

bool Reader::boolean() noexcept {
  const std::size_t start = offset();
  const std::uint8_t raw = u8();
  if (raw > 1) {
    fail_at(start, Errc::malformed, "bad boolean");
    return false;
  }
  return raw == 1;
}

std::size_t Reader::length_prefix() noexcept {
  const std::size_t start = offset();
  const std::uint64_t length = varint();
  if (length > remaining()) {
    fail_at(start, Errc::malformed, kTruncated);
    return 0;
  }
  return static_cast<std::size_t>(length);
}

std::string_view Reader::view_string() {
  const std::size_t n = length_prefix();
  if (n <= static_cast<std::size_t>(end_ - cur_)) {
    const std::string_view out(reinterpret_cast<const char*>(cur_), n);
    cur_ += n;
    return out;
  }
  std::string& gathered = spilled_.emplace_front(n, '\0');
  (void)read_slow(reinterpret_cast<std::uint8_t*>(gathered.data()), n);
  return gathered;
}

Result<std::string> Reader::string() {
  const std::string_view out = view_string();
  if (!ok()) return error_;
  return std::string(out);
}

Bytes Reader::blob() {
  Bytes out(length_prefix());
  (void)read_slow(out.data(), out.size());
  return out;
}

ByteChain Reader::view_blob() {
  std::size_t n = length_prefix();
  ByteChain out;
  if (slice_ == nullptr) {
    out.append(SharedBytes(Bytes(cur_, cur_ + n)));
    cur_ += n;
    return out;
  }
  while (n > 0) {
    if (cur_ == end_) (void)next_slice();
    const std::size_t take =
        std::min(n, static_cast<std::size_t>(end_ - cur_));
    out.append(slice_->slice(static_cast<std::size_t>(cur_ - begin_), take));
    cur_ += take;
    n -= take;
  }
  return out;
}

}  // namespace collabqos::serde
