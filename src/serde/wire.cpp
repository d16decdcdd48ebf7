#include "collabqos/serde/wire.hpp"

#include <bit>
#include <cstring>

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

Status Reader::need(std::size_t n) const noexcept {
  if (remaining() < n) {
    return Status(Errc::malformed, "truncated input");
  }
  return {};
}

Result<std::uint8_t> Reader::u8() {
  if (auto s = need(1); !s) return s.error();
  return data_[offset_++];
}

Result<std::uint16_t> Reader::u16() {
  if (auto s = need(2); !s) return s.error();
  std::uint16_t v = 0;
  v |= static_cast<std::uint16_t>(data_[offset_]);
  v |= static_cast<std::uint16_t>(data_[offset_ + 1]) << 8;
  offset_ += 2;
  return v;
}

Result<std::uint32_t> Reader::u32() {
  if (auto s = need(4); !s) return s.error();
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  return v;
}

Result<std::uint64_t> Reader::u64() {
  if (auto s = need(8); !s) return s.error();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
  return v;
}

Result<std::uint64_t> Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (auto s = need(1); !s) return s.error();
    const std::uint8_t byte = data_[offset_++];
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (i == 9 && byte > 1) {
        return Error{Errc::malformed, "varint overflow"};
      }
      return v;
    }
    shift += 7;
  }
  return Error{Errc::malformed, "varint too long"};
}

Result<std::int64_t> Reader::svarint() {
  auto raw = varint();
  if (!raw) return raw.error();
  const std::uint64_t u = raw.value();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

Result<double> Reader::f64() {
  auto raw = u64();
  if (!raw) return raw.error();
  return std::bit_cast<double>(raw.value());
}

Result<bool> Reader::boolean() {
  auto raw = u8();
  if (!raw) return raw.error();
  if (raw.value() > 1) return Error{Errc::malformed, "bad boolean"};
  return raw.value() == 1;
}

Result<std::string> Reader::string() {
  auto len = varint();
  if (!len) return len.error();
  if (auto s = need(len.value()); !s) return s.error();
  std::string out(reinterpret_cast<const char*>(data_.data() + offset_),
                  len.value());
  offset_ += len.value();
  return out;
}

Result<std::string_view> Reader::view_string() {
  auto len = varint();
  if (!len) return len.error();
  if (auto s = need(len.value()); !s) return s.error();
  const std::string_view out(
      reinterpret_cast<const char*>(data_.data() + offset_), len.value());
  offset_ += len.value();
  return out;
}

Status Reader::skip(std::size_t n) {
  if (auto s = need(n); !s) return s;
  offset_ += n;
  return {};
}

Status Reader::skip_string() {
  auto len = varint();
  if (!len) return len.error();
  return skip(len.value());
}

Result<Bytes> Reader::blob() {
  auto len = varint();
  if (!len) return len.error();
  if (auto s = need(len.value()); !s) return s.error();
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
            data_.begin() + static_cast<std::ptrdiff_t>(offset_ + len.value()));
  offset_ += len.value();
  return out;
}

}  // namespace collabqos::serde
