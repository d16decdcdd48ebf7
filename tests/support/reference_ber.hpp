// The SNMP message codec as it was before its rewrites, kept only as the
// reference the library must match.
//
// Decoding, as it was before BER moved onto serde::Reader: a TLV reader
// of its own that returns Result<Tlv>, content parsers that return
// Result<T>, and a Pdu decode that checks every step. The rewritten
// Pdu::decode must match it verdict for verdict and field for field.
//
// One known fault is kept as it was: the content check `offset_ + length`
// wraps for an 8-octet length near 2^64, so such a TLV passes with a
// content span past the end of the input. Callers must not feed it one.
//
// Two rules were added here when Pdu::decode gained them, so that the
// reference states the same contract: an OID subidentifier whose leading
// octet is 0x80 is malformed (X.690 8.19.2), and so is a header INTEGER
// its field cannot hold (request id and error index outside 0..2^32-1, a
// GETBULK non-repeaters value outside one byte).
//
// One fault was mended here together with the library: both used to write
// and read an OID's first subidentifier (40*a+b) as a single octet. Both
// now treat it base-128 like every other subidentifier (X.690 8.19.4), so
// 2.999.1 is 06 03 88 37 01. ber_test pins that with fixed vectors that do
// not come from this file.
//
// Encoding, as it was before the one-pass reverse build: each nested TLV
// is built in its own serde::Writer and copied into its parent's. The
// rewritten Pdu::encode must produce the same bytes. The corpus and
// hostile-input builders use these writers too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "collabqos/snmp/ber.hpp"
#include "collabqos/snmp/pdu.hpp"

namespace collabqos::snmp::reference {

// ------------------------------------------------------------- encoding

inline void write_length(serde::Writer& out, std::size_t length) {
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

/// Append one definite-length TLV: tag, length octets, raw content.
inline void write_tlv(serde::Writer& out, std::uint8_t tag,
                      std::span<const std::uint8_t> content) {
  out.u8(tag);
  write_length(out, content.size());
  for (const std::uint8_t byte : content) out.u8(byte);
}

/// INTEGER with minimal two's-complement content octets.
inline void write_integer(serde::Writer& out, std::int64_t value) {
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
  write_tlv(out, ber::tags::kInteger,
            std::span(octets + start, static_cast<std::size_t>(8 - start)));
}

/// Unsigned value under an application tag (Counter32/Gauge32/...):
/// minimal unsigned content with a leading 0x00 when the high bit is set.
inline void write_unsigned(serde::Writer& out, std::uint8_t tag,
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

inline void write_octet_string(serde::Writer& out, std::string_view value) {
  write_tlv(out, ber::tags::kOctetString,
            std::span(reinterpret_cast<const std::uint8_t*>(value.data()),
                      value.size()));
}

inline void write_null(serde::Writer& out) {
  write_tlv(out, ber::tags::kNull, {});
}

/// X.690 OID content: first two arcs fold into 40*a+b, every
/// subidentifier base-128. Requires at least 2 arcs with arcs[0] <= 2,
/// and 40*a+b within 32 bits.
inline Status write_oid(serde::Writer& out, const Oid& oid) {
  if (oid.size() < 2 || oid[0] > 2 || (oid[0] < 2 && oid[1] > 39) ||
      oid[1] > UINT32_MAX - 80) {
    return Status(Errc::malformed, "OID not encodable in X.690 form");
  }
  serde::Writer content;
  for (std::size_t i = 1; i < oid.size(); ++i) {
    const std::uint32_t arc = i == 1 ? 40 * oid[0] + oid[1] : oid[i];
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
  write_tlv(out, ber::tags::kOid, content.bytes());
  return {};
}

inline std::uint8_t pdu_tag(PduType type) noexcept {
  switch (type) {
    case PduType::get: return ber::tags::kGetRequest;
    case PduType::get_next: return ber::tags::kGetNextRequest;
    case PduType::set: return ber::tags::kSetRequest;
    case PduType::response: return ber::tags::kResponse;
    case PduType::trap: return ber::tags::kTrapV2;
    case PduType::get_bulk: return ber::tags::kGetBulkRequest;
  }
  return ber::tags::kGetRequest;
}

inline Status write_value(serde::Writer& out, const Value& value) {
  switch (value.type()) {
    case ValueType::integer:
      write_integer(out, value.as_integer().value());
      return {};
    case ValueType::gauge:
      write_unsigned(out, ber::tags::kGauge32,
                     std::min<std::uint64_t>(value.as_unsigned().value(),
                                             UINT32_MAX));
      return {};
    case ValueType::counter:
      write_unsigned(out, ber::tags::kCounter64, value.as_unsigned().value());
      return {};
    case ValueType::timeticks:
      write_unsigned(out, ber::tags::kTimeTicks,
                     std::min<std::uint64_t>(value.as_unsigned().value(),
                                             UINT32_MAX));
      return {};
    case ValueType::octet_string:
      write_octet_string(out, value.as_octets().value());
      return {};
    case ValueType::object_id:
      return write_oid(out, value.as_object_id().value());
    case ValueType::null:
      write_null(out);
      return {};
  }
  return Status(Errc::internal, "unencodable value type");
}

/// Pdu::encode as it was.
inline serde::Bytes encode(const Pdu& pdu) {
  constexpr std::int64_t kSnmpV2c = 1;
  // varbind-list := SEQUENCE OF SEQUENCE { OID, value }
  serde::Writer varbind_list;
  for (const VarBind& vb : pdu.bindings) {
    serde::Writer one;
    // Unencodable OIDs (fewer than 2 arcs) get a defensive padding so
    // internal tests with toy OIDs still round-trip: prefix 0.0.
    if (auto status = write_oid(one, vb.oid); !status.ok()) {
      Oid padded = Oid{0, 0}.concat(vb.oid);
      (void)write_oid(one, padded);
    }
    (void)write_value(one, vb.value);
    write_tlv(varbind_list, ber::tags::kSequence, one.bytes());
  }

  // pdu-content := request-id, error-status, error-index, varbind-list
  serde::Writer pdu_content;
  write_integer(pdu_content, static_cast<std::int64_t>(pdu.request_id));
  write_integer(pdu_content, static_cast<std::int64_t>(pdu.error_status));
  write_integer(pdu_content, static_cast<std::int64_t>(pdu.error_index));
  write_tlv(pdu_content, ber::tags::kSequence, varbind_list.bytes());

  // message := SEQUENCE { version, community, [tag] pdu-content }
  serde::Writer message_content;
  write_integer(message_content, kSnmpV2c);
  write_octet_string(message_content, pdu.community);
  write_tlv(message_content, pdu_tag(pdu.type), pdu_content.bytes());

  serde::Writer message;
  write_tlv(message, ber::tags::kSequence, message_content.bytes());
  return std::move(message).take();
}

// ------------------------------------------------------------- decoding

/// A decoded TLV header plus its content span (borrowed from the input).
struct Tlv {
  std::uint8_t tag = 0;
  std::span<const std::uint8_t> content;
};

/// Streaming BER reader over a byte span.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  /// Read the next TLV (content is a sub-span; no copy).
  [[nodiscard]] Result<Tlv> next() {
    if (offset_ >= data_.size()) {
      return Error{Errc::malformed, "BER input exhausted"};
    }
    Tlv tlv;
    tlv.tag = data_[offset_++];
    if (offset_ >= data_.size()) {
      return Error{Errc::malformed, "missing BER length"};
    }
    std::size_t length = data_[offset_++];
    if (length & 0x80) {
      const std::size_t count = length & 0x7F;
      if (count == 0 || count > 8) {
        return Error{Errc::malformed, "unsupported BER length form"};
      }
      if (offset_ + count > data_.size()) {
        return Error{Errc::malformed, "truncated BER length"};
      }
      length = 0;
      for (std::size_t i = 0; i < count; ++i) {
        length = (length << 8) | data_[offset_++];
      }
    }
    if (offset_ + length > data_.size()) {
      return Error{Errc::malformed, "truncated BER content"};
    }
    tlv.content = data_.subspan(offset_, length);
    offset_ += length;
    return tlv;
  }

  /// Read the next TLV and require `tag`.
  [[nodiscard]] Result<Tlv> expect(std::uint8_t tag) {
    auto tlv = next();
    if (!tlv) return tlv;
    if (tlv.value().tag != tag) {
      return Error{Errc::malformed,
                   "unexpected BER tag " + std::to_string(tlv.value().tag) +
                       " (wanted " + std::to_string(tag) + ")"};
    }
    return tlv;
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return offset_ >= data_.size();
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

/// Decode INTEGER content octets (two's complement, up to 8 bytes).
inline Result<std::int64_t> read_integer(
    std::span<const std::uint8_t> content) {
  if (content.empty() || content.size() > 8) {
    return Error{Errc::malformed, "bad INTEGER length"};
  }
  std::int64_t value = (content[0] & 0x80) != 0 ? -1 : 0;
  for (const std::uint8_t byte : content) {
    value = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(value) << 8) | byte);
  }
  return value;
}

/// Decode unsigned application-type content (up to 8 value bytes plus an
/// optional leading 0x00).
inline Result<std::uint64_t> read_unsigned(
    std::span<const std::uint8_t> content) {
  if (content.empty() || content.size() > 9 ||
      (content.size() == 9 && content[0] != 0x00)) {
    return Error{Errc::malformed, "bad unsigned length"};
  }
  std::uint64_t value = 0;
  for (const std::uint8_t byte : content) {
    value = (value << 8) | byte;
  }
  return value;
}

/// Decode OID content octets.
inline Result<Oid> read_oid(std::span<const std::uint8_t> content) {
  if (content.empty()) return Error{Errc::malformed, "empty OID"};
  std::vector<std::uint32_t> arcs;
  std::uint32_t arc = 0;
  int continuation = 0;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const std::uint8_t byte = content[i];
    if (byte == 0x80 && continuation == 0) {
      return Error{Errc::malformed, "non-minimal OID arc"};
    }
    if (arc > (UINT32_MAX >> 7)) {
      return Error{Errc::malformed, "OID arc overflow"};
    }
    arc = (arc << 7) | (byte & 0x7F);
    if (byte & 0x80) {
      if (++continuation > 5) {
        return Error{Errc::malformed, "OID arc too long"};
      }
      continue;
    }
    if (arcs.empty()) {
      // The first subidentifier is 40*a+b, with b < 40 unless a is 2.
      arcs.push_back(arc < 80 ? arc / 40 : 2);
      arcs.push_back(arc < 80 ? arc % 40 : arc - 80);
    } else {
      arcs.push_back(arc);
    }
    arc = 0;
    continuation = 0;
  }
  if (continuation != 0) {
    return Error{Errc::malformed, "truncated OID arc"};
  }
  return Oid(std::move(arcs));
}

inline Result<PduType> pdu_type_from_tag(std::uint8_t tag) {
  switch (tag) {
    case ber::tags::kGetRequest: return PduType::get;
    case ber::tags::kGetNextRequest: return PduType::get_next;
    case ber::tags::kSetRequest: return PduType::set;
    case ber::tags::kResponse: return PduType::response;
    case ber::tags::kTrapV2: return PduType::trap;
    case ber::tags::kGetBulkRequest: return PduType::get_bulk;
    default:
      return Error{Errc::malformed, "unknown PDU tag"};
  }
}

inline Result<Value> read_value(const Tlv& tlv) {
  switch (tlv.tag) {
    case ber::tags::kInteger: {
      auto v = read_integer(tlv.content);
      if (!v) return v.error();
      return Value::integer(v.value());
    }
    case ber::tags::kGauge32: {
      auto v = read_unsigned(tlv.content);
      if (!v) return v.error();
      return Value::gauge(v.value());
    }
    case ber::tags::kCounter32:
    case ber::tags::kCounter64: {
      auto v = read_unsigned(tlv.content);
      if (!v) return v.error();
      return Value::counter(v.value());
    }
    case ber::tags::kTimeTicks: {
      auto v = read_unsigned(tlv.content);
      if (!v) return v.error();
      return Value::timeticks(v.value());
    }
    case ber::tags::kOctetString:
      return Value::octets(std::string(
          reinterpret_cast<const char*>(tlv.content.data()),
          tlv.content.size()));
    case ber::tags::kOid: {
      auto oid = read_oid(tlv.content);
      if (!oid) return oid.error();
      return Value::object_id(std::move(oid).take());
    }
    case ber::tags::kNull:
      if (!tlv.content.empty()) {
        return Error{Errc::malformed, "NULL with content"};
      }
      return Value{};
    default:
      return Error{Errc::malformed, "unknown value tag"};
  }
}

/// Pdu::decode as it was.
inline Result<Pdu> decode(std::span<const std::uint8_t> bytes) {
  constexpr std::int64_t kSnmpV2c = 1;
  Reader outer(bytes);
  auto message = outer.expect(ber::tags::kSequence);
  if (!message) return message.error();
  if (!outer.exhausted()) {
    return Error{Errc::malformed, "trailing bytes after SNMP message"};
  }

  Reader fields(message.value().content);
  auto version_tlv = fields.expect(ber::tags::kInteger);
  if (!version_tlv) return version_tlv.error();
  auto version = read_integer(version_tlv.value().content);
  if (!version) return version.error();
  if (version.value() != kSnmpV2c) {
    return Error{Errc::unsupported, "unsupported SNMP version"};
  }

  Pdu pdu;
  auto community_tlv = fields.expect(ber::tags::kOctetString);
  if (!community_tlv) return community_tlv.error();
  pdu.community.assign(
      reinterpret_cast<const char*>(community_tlv.value().content.data()),
      community_tlv.value().content.size());

  auto pdu_tlv = fields.next();
  if (!pdu_tlv) return pdu_tlv.error();
  auto type = pdu_type_from_tag(pdu_tlv.value().tag);
  if (!type) return type.error();
  pdu.type = type.value();
  if (!fields.exhausted()) {
    return Error{Errc::malformed, "trailing fields in SNMP message"};
  }

  Reader body(pdu_tlv.value().content);
  auto request_tlv = body.expect(ber::tags::kInteger);
  if (!request_tlv) return request_tlv.error();
  auto request_id = read_integer(request_tlv.value().content);
  if (!request_id) return request_id.error();
  if (request_id.value() < 0 || request_id.value() > UINT32_MAX) {
    return Error{Errc::malformed, "request id out of range"};
  }
  pdu.request_id = static_cast<std::uint32_t>(request_id.value());

  auto status_tlv = body.expect(ber::tags::kInteger);
  if (!status_tlv) return status_tlv.error();
  auto status = read_integer(status_tlv.value().content);
  if (!status) return status.error();
  if (pdu.type != PduType::get_bulk &&
      (status.value() < 0 ||
       status.value() > static_cast<int>(ErrorStatus::no_access))) {
    return Error{Errc::malformed, "unknown error status"};
  }
  if (status.value() < 0 || status.value() > UINT8_MAX) {
    return Error{Errc::malformed, "non-repeaters out of range"};
  }
  pdu.error_status = static_cast<ErrorStatus>(status.value());

  auto index_tlv = body.expect(ber::tags::kInteger);
  if (!index_tlv) return index_tlv.error();
  auto error_index = read_integer(index_tlv.value().content);
  if (!error_index) return error_index.error();
  if (error_index.value() < 0 || error_index.value() > UINT32_MAX) {
    return Error{Errc::malformed, "error index out of range"};
  }
  pdu.error_index = static_cast<std::uint32_t>(error_index.value());

  auto list_tlv = body.expect(ber::tags::kSequence);
  if (!list_tlv) return list_tlv.error();
  if (!body.exhausted()) {
    return Error{Errc::malformed, "trailing fields in PDU"};
  }

  Reader list(list_tlv.value().content);
  while (!list.exhausted()) {
    if (pdu.bindings.size() >= Pdu::kMaxBindings) {
      return Error{Errc::malformed, "too many varbinds"};
    }
    auto vb_tlv = list.expect(ber::tags::kSequence);
    if (!vb_tlv) return vb_tlv.error();
    Reader vb_fields(vb_tlv.value().content);
    auto oid_tlv = vb_fields.expect(ber::tags::kOid);
    if (!oid_tlv) return oid_tlv.error();
    auto oid = read_oid(oid_tlv.value().content);
    if (!oid) return oid.error();
    auto value_tlv = vb_fields.next();
    if (!value_tlv) return value_tlv.error();
    auto value = read_value(value_tlv.value());
    if (!value) return value.error();
    if (!vb_fields.exhausted()) {
      return Error{Errc::malformed, "trailing fields in varbind"};
    }
    VarBind vb;
    // Strip the defensive 0.0 padding applied to toy OIDs at encode.
    Oid decoded_oid = std::move(oid).take();
    if (decoded_oid.size() >= 2 && decoded_oid[0] == 0 &&
        decoded_oid[1] == 0) {
      std::vector<std::uint32_t> arcs(decoded_oid.arcs().begin() + 2,
                                      decoded_oid.arcs().end());
      decoded_oid = Oid(std::move(arcs));
    }
    vb.oid = std::move(decoded_oid);
    vb.value = std::move(value).take();
    pdu.bindings.push_back(std::move(vb));
  }
  return pdu;
}

}  // namespace collabqos::snmp::reference
