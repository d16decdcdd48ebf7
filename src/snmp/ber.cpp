#include "collabqos/snmp/ber.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace collabqos::snmp::ber {

void Encoder::grow(std::size_t n) {
  // The content moves to the tail of the larger buffer.
  const std::size_t capacity = std::max({capacity_ * 2, size_ + n,
                                         std::size_t{512}});
  auto buffer = std::make_unique<std::uint8_t[]>(capacity);
  const std::span<const std::uint8_t> content = bytes();
  std::copy(content.begin(), content.end(),
            buffer.get() + capacity - content.size());
  buffer_ = std::move(buffer);
  capacity_ = capacity;
}

void Encoder::header(std::uint8_t tag, std::size_t length) {
  if (length < 128) {
    std::uint8_t* out = prepend(2);
    out[0] = tag;
    out[1] = static_cast<std::uint8_t>(length);
    return;
  }
  // Long form: 0x80 | count, then big-endian length octets.
  const int count = (std::bit_width(length) + 7) / 8;
  std::uint8_t* out = prepend(2 + static_cast<std::size_t>(count));
  out[0] = tag;
  out[1] = static_cast<std::uint8_t>(0x80 | count);
  for (int i = count; i >= 1; --i, length >>= 8) {
    out[1 + i] = static_cast<std::uint8_t>(length & 0xFF);
  }
}

void Encoder::integer(std::int64_t value) {
  // Minimal two's complement: drop leading octets that only repeat the
  // sign bit of the octet after them.
  const auto bits = static_cast<std::uint64_t>(value);
  const std::uint64_t magnitude = value < 0 ? ~bits : bits;
  const int count = std::bit_width(magnitude) / 8 + 1;
  std::uint8_t* out = prepend(static_cast<std::size_t>(count));
  for (int i = count - 1; i >= 0; --i) {
    out[i] = static_cast<std::uint8_t>(bits >> (8 * (count - 1 - i)));
  }
  header(tags::kInteger, static_cast<std::size_t>(count));
}

void Encoder::unsigned_integer(std::uint8_t tag, std::uint64_t value) {
  // One octet per started 8 bits, plus a leading 0x00 when the top bit
  // of the first value octet is set (std::bit_width(value) % 8 == 0).
  const int count = std::bit_width(value) / 8 + 1;
  std::uint8_t* out = prepend(static_cast<std::size_t>(count));
  for (int i = count - 1; i >= 0; --i) {
    const int shift = 8 * (count - 1 - i);
    out[i] = shift < 64 ? static_cast<std::uint8_t>(value >> shift) : 0;
  }
  header(tag, static_cast<std::size_t>(count));
}

void Encoder::octet_string(std::string_view value) {
  std::copy(value.begin(), value.end(), prepend(value.size()));
  header(tags::kOctetString, value.size());
}

bool Encoder::oid(const Oid& oid) {
  if (oid.size() < 2 || oid[0] > 2 || (oid[0] < 2 && oid[1] > 39) ||
      oid[1] > UINT32_MAX - 80) {
    return false;
  }
  oid_content(40 * oid[0] + oid[1], oid.arcs().subspan(2));
  return true;
}

void Encoder::padded_oid(const Oid& oid) { oid_content(0, oid.arcs()); }

void Encoder::subidentifier(std::uint32_t value) {
  // Base-128, most significant group first, continuation bit on all but
  // the last: written from the tail, the last group comes first.
  *prepend(1) = static_cast<std::uint8_t>(value & 0x7F);
  for (value >>= 7; value > 0; value >>= 7) {
    *prepend(1) = static_cast<std::uint8_t>(0x80 | (value & 0x7F));
  }
}

void Encoder::oid_content(std::uint32_t head,
                          std::span<const std::uint32_t> arcs) {
  const std::size_t mark = size_;
  for (auto arc = arcs.rbegin(); arc != arcs.rend(); ++arc) {
    subidentifier(*arc);
  }
  subidentifier(head);
  wrap(tags::kOid, mark);
}

Header read_header(serde::Reader& r, std::size_t end) {
  // Octets left before `end`; none once the reader has failed.
  const auto room = [&r, end] { return r.ok() ? end - r.offset() : 0; };
  Header h;
  if (room() == 0) {
    r.fail(Errc::malformed, "BER input exhausted");
    return {};
  }
  h.tag = r.u8();
  if (room() == 0) {
    r.fail(Errc::malformed, "missing BER length");
    return {};
  }
  h.length = r.u8();
  if (h.length & 0x80) {
    const std::size_t count = h.length & 0x7F;
    if (count == 0 || count > 8) {
      r.fail(Errc::malformed, "unsupported BER length form");
      return {};
    }
    if (count > room()) {
      r.fail(Errc::malformed, "truncated BER length");
      return {};
    }
    h.length = 0;
    for (std::size_t i = 0; i < count; ++i) h.length = (h.length << 8) | r.u8();
  }
  if (h.length > room()) {
    r.fail(Errc::malformed, "truncated BER content");
    return {};
  }
  h.end = r.offset() + h.length;
  return h;
}

Header expect(serde::Reader& r, std::uint8_t tag, std::size_t end) {
  const Header h = read_header(r, end);
  if (r.ok() && h.tag != tag) {
    r.fail(Errc::malformed, "unexpected BER tag " + std::to_string(h.tag) +
                                " (wanted " + std::to_string(tag) + ")");
    return {};
  }
  return h;
}

std::int64_t read_integer(serde::Reader& r, std::size_t length) {
  if (length == 0 || length > 8) {
    r.fail(Errc::malformed, "bad INTEGER length");
    return 0;
  }
  // Sign-extend the first octet, then shift the rest in.
  auto value = static_cast<std::int64_t>(static_cast<std::int8_t>(r.u8()));
  for (std::size_t i = 1; i < length; ++i) {
    value = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(value) << 8) | r.u8());
  }
  return value;
}

std::uint64_t read_unsigned(serde::Reader& r, std::size_t length) {
  if (length == 0 || length > 9) {
    r.fail(Errc::malformed, "bad unsigned length");
    return 0;
  }
  std::uint64_t value = r.u8();
  if (length == 9 && value != 0) {
    r.fail(Errc::malformed, "bad unsigned length");
    return 0;
  }
  for (std::size_t i = 1; i < length; ++i) value = (value << 8) | r.u8();
  return value;
}

std::string_view read_octets(serde::Reader& r, std::size_t length) {
  const std::span<const std::uint8_t> rest = r.remaining_span();
  const std::string_view out(reinterpret_cast<const char*>(rest.data()),
                             std::min(length, rest.size()));
  r.skip(length);
  return out;
}

Oid read_oid(serde::Reader& r, std::size_t length) {
  if (length == 0) {
    r.fail(Errc::malformed, "empty OID");
    return {};
  }
  // Parsed from the input in place, like read_octets: a local pointer
  // keeps the loop in registers, where reading through `r` octet by
  // octet reloaded the reader after every arc stored.
  const std::span<const std::uint8_t> rest = r.remaining_span();
  if (rest.size() < length) {
    r.fail(Errc::malformed, "truncated OID");
    return {};
  }
  r.skip(length);
  const std::uint8_t* in = rest.data();
  const std::uint8_t* const end = in + length;
  Oid oid;
  std::uint32_t arc = 0;
  int continuation = 0;
  for (; in != end; ++in) {
    const std::uint8_t byte = *in;
    if (byte == 0x80 && continuation == 0) {
      // X.690 8.19.2: a subidentifier's leading octet is never 0x80, so
      // that each OID has one encoding.
      r.fail(Errc::malformed, "non-minimal OID arc");
      return {};
    }
    if (arc > (UINT32_MAX >> 7)) {
      r.fail(Errc::malformed, "OID arc overflow");
      return {};
    }
    arc = (arc << 7) | (byte & 0x7F);
    if (byte & 0x80) {
      if (++continuation > 5) {
        r.fail(Errc::malformed, "OID arc too long");
        return {};
      }
      continue;
    }
    if (oid.empty()) {
      // X.690 8.19.4: the first subidentifier is 40*a+b, with b < 40
      // unless a is 2.
      oid.push_back(arc < 80 ? arc / 40 : 2);
      oid.push_back(arc < 80 ? arc % 40 : arc - 80);
    } else {
      oid.push_back(arc);
    }
    arc = 0;
    continuation = 0;
  }
  if (continuation != 0) r.fail(Errc::malformed, "truncated OID arc");
  return oid;
}

}  // namespace collabqos::snmp::ber
