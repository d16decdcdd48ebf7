#include "collabqos/snmp/ber.hpp"

#include <algorithm>
#include <string>

namespace collabqos::snmp::ber {

namespace {

void write_length(serde::Writer& out, std::size_t length) {
  if (length < 128) {
    out.u8(static_cast<std::uint8_t>(length));
    return;
  }
  // Long form: 0x80 | count, then big-endian length octets.
  std::uint8_t octets[8];
  int count = 0;
  std::size_t remaining = length;
  while (remaining > 0) {
    octets[count++] = static_cast<std::uint8_t>(remaining & 0xFF);
    remaining >>= 8;
  }
  out.u8(static_cast<std::uint8_t>(0x80 | count));
  for (int i = count - 1; i >= 0; --i) out.u8(octets[i]);
}

}  // namespace

void write_tlv(serde::Writer& out, std::uint8_t tag,
               std::span<const std::uint8_t> content) {
  out.u8(tag);
  write_length(out, content.size());
  for (const std::uint8_t byte : content) out.u8(byte);
}

void write_integer(serde::Writer& out, std::int64_t value) {
  // Minimal two's-complement: strip redundant leading 0x00/0xFF octets.
  std::uint8_t octets[8];
  for (int i = 0; i < 8; ++i) {
    octets[i] = static_cast<std::uint8_t>(
        (static_cast<std::uint64_t>(value) >> (8 * (7 - i))) & 0xFF);
  }
  int start = 0;
  while (start < 7) {
    const bool redundant_zero =
        octets[start] == 0x00 && (octets[start + 1] & 0x80) == 0;
    const bool redundant_ff =
        octets[start] == 0xFF && (octets[start + 1] & 0x80) != 0;
    if (!redundant_zero && !redundant_ff) break;
    ++start;
  }
  write_tlv(out, tags::kInteger,
            std::span(octets + start, static_cast<std::size_t>(8 - start)));
}

void write_unsigned(serde::Writer& out, std::uint8_t tag,
                    std::uint64_t value) {
  std::uint8_t octets[9];
  octets[0] = 0x00;  // room for the sign-protection byte
  for (int i = 0; i < 8; ++i) {
    octets[i + 1] =
        static_cast<std::uint8_t>((value >> (8 * (7 - i))) & 0xFF);
  }
  int start = 1;
  while (start < 8 && octets[start] == 0x00) ++start;
  // Keep a leading zero when the first value octet has the high bit set.
  if ((octets[start] & 0x80) != 0) --start;
  write_tlv(out, tag,
            std::span(octets + start, static_cast<std::size_t>(9 - start)));
}

void write_octet_string(serde::Writer& out, std::string_view value) {
  write_tlv(out, tags::kOctetString,
            std::span(reinterpret_cast<const std::uint8_t*>(value.data()),
                      value.size()));
}

void write_null(serde::Writer& out) { write_tlv(out, tags::kNull, {}); }

Status write_oid(serde::Writer& out, const Oid& oid) {
  if (oid.size() < 2 || oid[0] > 2 || (oid[0] < 2 && oid[1] > 39)) {
    return Status(Errc::malformed, "OID not encodable in X.690 form");
  }
  serde::Writer content;
  content.u8(static_cast<std::uint8_t>(40 * oid[0] + oid[1]));
  for (std::size_t i = 2; i < oid.size(); ++i) {
    const std::uint32_t arc = oid[i];
    std::uint8_t groups[5];
    int count = 0;
    std::uint32_t remaining = arc;
    do {
      groups[count++] = static_cast<std::uint8_t>(remaining & 0x7F);
      remaining >>= 7;
    } while (remaining > 0);
    for (int g = count - 1; g >= 1; --g) {
      content.u8(static_cast<std::uint8_t>(groups[g] | 0x80));
    }
    content.u8(groups[0]);
  }
  write_tlv(out, tags::kOid, content.bytes());
  return {};
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
  std::vector<std::uint32_t> arcs;
  const std::uint8_t head = r.u8();
  arcs.push_back(head / 40 > 2 ? 2 : head / 40);
  arcs.push_back(head / 40 > 2 ? head - 80 : head % 40);
  std::uint32_t arc = 0;
  int continuation = 0;
  for (std::size_t i = 1; i < length; ++i) {
    const std::uint8_t byte = r.u8();
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
    arcs.push_back(arc);
    arc = 0;
    continuation = 0;
  }
  if (continuation != 0) r.fail(Errc::malformed, "truncated OID arc");
  return Oid(std::move(arcs));
}

}  // namespace collabqos::snmp::ber
