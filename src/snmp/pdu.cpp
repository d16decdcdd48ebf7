#include "collabqos/snmp/pdu.hpp"

#include <algorithm>
#include <cstdint>

#include "collabqos/snmp/ber.hpp"

namespace collabqos::snmp {

namespace {

constexpr std::int64_t kSnmpV2c = 1;  // version field value for v2c

std::uint8_t pdu_tag(PduType type) noexcept {
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

PduType pdu_type_from_tag(serde::Reader& r, std::uint8_t tag) {
  switch (tag) {
    case ber::tags::kGetRequest: return PduType::get;
    case ber::tags::kGetNextRequest: return PduType::get_next;
    case ber::tags::kSetRequest: return PduType::set;
    case ber::tags::kResponse: return PduType::response;
    case ber::tags::kTrapV2: return PduType::trap;
    case ber::tags::kGetBulkRequest: return PduType::get_bulk;
  }
  r.fail(Errc::malformed, "unknown PDU tag");
  return PduType::get;
}

Status write_value(serde::Writer& out, const Value& value) {
  switch (value.type()) {
    case ValueType::integer:
      ber::write_integer(out, value.as_integer().value());
      return {};
    case ValueType::gauge:
      ber::write_unsigned(out, ber::tags::kGauge32,
                          std::min<std::uint64_t>(value.as_unsigned().value(),
                                                  UINT32_MAX));
      return {};
    case ValueType::counter:
      ber::write_unsigned(out, ber::tags::kCounter64,
                          value.as_unsigned().value());
      return {};
    case ValueType::timeticks:
      ber::write_unsigned(out, ber::tags::kTimeTicks,
                          std::min<std::uint64_t>(value.as_unsigned().value(),
                                                  UINT32_MAX));
      return {};
    case ValueType::octet_string:
      ber::write_octet_string(out, value.as_octets().value());
      return {};
    case ValueType::object_id:
      return ber::write_oid(out, value.as_object_id().value());
    case ValueType::null:
      ber::write_null(out);
      return {};
  }
  return Status(Errc::internal, "unencodable value type");
}

/// A value TLV that must end by `end`.
Value read_value(serde::Reader& r, std::size_t end) {
  const ber::Header h = ber::read_header(r, end);
  switch (h.tag) {
    case ber::tags::kInteger:
      return Value::integer(ber::read_integer(r, h.length));
    case ber::tags::kGauge32:
      return Value::gauge(ber::read_unsigned(r, h.length));
    case ber::tags::kCounter32:
    case ber::tags::kCounter64:
      return Value::counter(ber::read_unsigned(r, h.length));
    case ber::tags::kTimeTicks:
      return Value::timeticks(ber::read_unsigned(r, h.length));
    case ber::tags::kOctetString:
      return Value::octets(std::string(ber::read_octets(r, h.length)));
    case ber::tags::kOid:
      return Value::object_id(ber::read_oid(r, h.length));
    case ber::tags::kNull:
      if (h.length != 0) r.fail(Errc::malformed, "NULL with content");
      return Value{};
  }
  r.fail(Errc::malformed, "unknown value tag");
  return Value{};
}

/// An INTEGER TLV that must end by `end`.
std::int64_t read_integer_field(serde::Reader& r, std::size_t end) {
  return ber::read_integer(r, ber::expect(r, ber::tags::kInteger, end).length);
}

/// Undo the 0.0 prefix encode() gives OIDs that X.690 cannot carry.
Oid strip_toy_padding(Oid oid) {
  if (oid.size() < 2 || oid[0] != 0 || oid[1] != 0) return oid;
  return Oid(std::vector<std::uint32_t>(oid.arcs().begin() + 2,
                                        oid.arcs().end()));
}

}  // namespace

std::string_view to_string(PduType type) noexcept {
  switch (type) {
    case PduType::get: return "GET";
    case PduType::get_next: return "GETNEXT";
    case PduType::set: return "SET";
    case PduType::response: return "RESPONSE";
    case PduType::trap: return "TRAP";
    case PduType::get_bulk: return "GETBULK";
  }
  return "?";
}

std::string_view to_string(ErrorStatus status) noexcept {
  switch (status) {
    case ErrorStatus::no_error: return "noError";
    case ErrorStatus::too_big: return "tooBig";
    case ErrorStatus::no_such_name: return "noSuchName";
    case ErrorStatus::bad_value: return "badValue";
    case ErrorStatus::read_only: return "readOnly";
    case ErrorStatus::gen_err: return "genErr";
    case ErrorStatus::no_access: return "noAccess";
  }
  return "?";
}

serde::Bytes Pdu::encode() const {
  // varbind-list := SEQUENCE OF SEQUENCE { OID, value }
  serde::Writer varbind_list;
  for (const VarBind& vb : bindings) {
    serde::Writer one;
    // Unencodable OIDs (fewer than 2 arcs) get a defensive padding so
    // internal tests with toy OIDs still round-trip: prefix 0.0.
    if (auto status = ber::write_oid(one, vb.oid); !status.ok()) {
      Oid padded = Oid{0, 0}.concat(vb.oid);
      (void)ber::write_oid(one, padded);
    }
    (void)write_value(one, vb.value);
    ber::write_tlv(varbind_list, ber::tags::kSequence, one.bytes());
  }

  // pdu-content := request-id, error-status, error-index, varbind-list
  serde::Writer pdu_content;
  ber::write_integer(pdu_content, static_cast<std::int64_t>(request_id));
  ber::write_integer(pdu_content,
                     static_cast<std::int64_t>(error_status));
  ber::write_integer(pdu_content, static_cast<std::int64_t>(error_index));
  ber::write_tlv(pdu_content, ber::tags::kSequence, varbind_list.bytes());

  // message := SEQUENCE { version, community, [tag] pdu-content }
  serde::Writer message_content;
  ber::write_integer(message_content, kSnmpV2c);
  ber::write_octet_string(message_content, community);
  ber::write_tlv(message_content, pdu_tag(type), pdu_content.bytes());

  serde::Writer message;
  ber::write_tlv(message, ber::tags::kSequence, message_content.bytes());
  return std::move(message).take();
}

Result<Pdu> Pdu::decode(std::span<const std::uint8_t> bytes) {
  // One reader over the whole message: each constructed TLV bounds the
  // reads inside it by its end offset, and the first fault latches.
  serde::Reader r(bytes);
  const ber::Header message =
      ber::expect(r, ber::tags::kSequence, bytes.size());
  if (message.end != bytes.size()) {
    r.fail(Errc::malformed, "trailing bytes after SNMP message");
  }
  if (read_integer_field(r, message.end) != kSnmpV2c) {
    r.fail(Errc::unsupported, "unsupported SNMP version");
  }

  Pdu pdu;
  pdu.community = ber::read_octets(
      r, ber::expect(r, ber::tags::kOctetString, message.end).length);
  const ber::Header body = ber::read_header(r, message.end);
  pdu.type = pdu_type_from_tag(r, body.tag);
  if (body.end != message.end) {
    r.fail(Errc::malformed, "trailing fields in SNMP message");
  }

  // The three header INTEGERs narrow to the fields that hold them:
  // request id and error index (GETBULK: max-repetitions) to 32 bits
  // unsigned, error status (GETBULK: non-repeaters) to one byte.
  const auto fits = [](std::int64_t v, std::int64_t max) {
    return v >= 0 && v <= max;
  };
  const std::int64_t request_id = read_integer_field(r, body.end);
  if (!fits(request_id, UINT32_MAX)) {
    r.fail(Errc::malformed, "request id out of range");
  }
  pdu.request_id = static_cast<std::uint32_t>(request_id);
  const std::int64_t status = read_integer_field(r, body.end);
  if (pdu.type != PduType::get_bulk) {
    if (!fits(status, static_cast<int>(ErrorStatus::no_access))) {
      r.fail(Errc::malformed, "unknown error status");
    }
  } else if (!fits(status, UINT8_MAX)) {
    r.fail(Errc::malformed, "non-repeaters out of range");
  }
  pdu.error_status = static_cast<ErrorStatus>(status);
  const std::int64_t error_index = read_integer_field(r, body.end);
  if (!fits(error_index, UINT32_MAX)) {
    r.fail(Errc::malformed, "error index out of range");
  }
  pdu.error_index = static_cast<std::uint32_t>(error_index);

  const ber::Header list = ber::expect(r, ber::tags::kSequence, body.end);
  if (list.end != body.end) r.fail(Errc::malformed, "trailing fields in PDU");
  while (r.ok() && r.offset() < list.end) {
    if (pdu.bindings.size() >= kMaxBindings) {
      r.fail(Errc::malformed, "too many varbinds");
    }
    const ber::Header vb = ber::expect(r, ber::tags::kSequence, list.end);
    const ber::Header oid = ber::expect(r, ber::tags::kOid, vb.end);
    VarBind binding{strip_toy_padding(ber::read_oid(r, oid.length)),
                    read_value(r, vb.end)};
    if (r.offset() != vb.end) {
      r.fail(Errc::malformed, "trailing fields in varbind");
    }
    if (!r.ok()) return r.error();
    pdu.bindings.push_back(std::move(binding));
  }
  if (!r.ok()) return r.error();
  return pdu;
}

}  // namespace collabqos::snmp
