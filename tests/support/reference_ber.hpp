// The SNMP message decoder as it was before BER moved onto serde::Reader:
// a TLV reader of its own that returns Result<Tlv>, content parsers that
// return Result<T>, and a Pdu decode that checks every step. It stays here
// only as the reference the rewritten Pdu::decode must match verdict for
// verdict and field for field.
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
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "collabqos/snmp/ber.hpp"
#include "collabqos/snmp/pdu.hpp"

namespace collabqos::snmp::reference {

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
  const std::uint8_t head = content[0];
  arcs.push_back(head / 40 > 2 ? 2 : head / 40);
  arcs.push_back(head / 40 > 2 ? head - 80 : head % 40);
  std::uint32_t arc = 0;
  int continuation = 0;
  for (std::size_t i = 1; i < content.size(); ++i) {
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
    arcs.push_back(arc);
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
