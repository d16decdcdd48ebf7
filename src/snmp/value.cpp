#include "collabqos/snmp/value.hpp"

#include <algorithm>

namespace collabqos::snmp {

Value Value::integer(std::int64_t v) {
  Value out;
  out.data_ = v;
  out.type_ = ValueType::integer;
  return out;
}

Value Value::gauge(std::uint64_t v) {
  Value out;
  out.data_ = v;
  out.type_ = ValueType::gauge;
  return out;
}

Value Value::counter(std::uint64_t v) {
  Value out;
  out.data_ = v;
  out.type_ = ValueType::counter;
  return out;
}

Value Value::timeticks(std::uint64_t hundredths) {
  Value out;
  out.data_ = hundredths;
  out.type_ = ValueType::timeticks;
  return out;
}

Value Value::octets(std::string v) {
  Value out;
  out.data_ = std::move(v);
  out.type_ = ValueType::octet_string;
  return out;
}

Value Value::object_id(Oid v) {
  Value out;
  out.data_ = std::move(v);
  out.type_ = ValueType::object_id;
  return out;
}

Result<std::int64_t> Value::as_integer() const {
  if (type_ != ValueType::integer) {
    return Error{Errc::malformed, "value is not INTEGER"};
  }
  return std::get<std::int64_t>(data_);
}

Result<std::uint64_t> Value::as_unsigned() const {
  switch (type_) {
    case ValueType::gauge:
    case ValueType::counter:
    case ValueType::timeticks:
      return std::get<std::uint64_t>(data_);
    default:
      return Error{Errc::malformed, "value is not an unsigned type"};
  }
}

Result<std::string> Value::as_octets() const {
  if (type_ != ValueType::octet_string) {
    return Error{Errc::malformed, "value is not OCTET STRING"};
  }
  return std::get<std::string>(data_);
}

Result<Oid> Value::as_object_id() const {
  if (type_ != ValueType::object_id) {
    return Error{Errc::malformed, "value is not OBJECT IDENTIFIER"};
  }
  return std::get<Oid>(data_);
}

Result<double> Value::as_number() const {
  switch (type_) {
    case ValueType::integer:
      return static_cast<double>(std::get<std::int64_t>(data_));
    case ValueType::gauge:
    case ValueType::counter:
    case ValueType::timeticks:
      return static_cast<double>(std::get<std::uint64_t>(data_));
    default:
      return Error{Errc::malformed, "value is not numeric"};
  }
}

std::string Value::to_string() const {
  switch (type_) {
    case ValueType::integer:
      return "INTEGER: " + std::to_string(std::get<std::int64_t>(data_));
    case ValueType::gauge:
      return "Gauge: " + std::to_string(std::get<std::uint64_t>(data_));
    case ValueType::counter:
      return "Counter: " + std::to_string(std::get<std::uint64_t>(data_));
    case ValueType::timeticks:
      return "Timeticks: " + std::to_string(std::get<std::uint64_t>(data_));
    case ValueType::octet_string:
      return "STRING: " + std::get<std::string>(data_);
    case ValueType::object_id:
      return "OID: " + std::get<Oid>(data_).to_string();
    case ValueType::null:
      return "NULL";
  }
  return "?";
}

void Value::encode(serde::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type_));
  switch (type_) {
    case ValueType::integer:
      w.svarint(std::get<std::int64_t>(data_));
      break;
    case ValueType::gauge:
    case ValueType::counter:
    case ValueType::timeticks:
      w.varint(std::get<std::uint64_t>(data_));
      break;
    case ValueType::octet_string:
      w.string(std::get<std::string>(data_));
      break;
    case ValueType::object_id: {
      const Oid& oid = std::get<Oid>(data_);
      w.varint(oid.size());
      for (const std::uint32_t arc : oid.arcs()) w.varint(arc);
      break;
    }
    case ValueType::null:
      break;  // no content
  }
}

Value Value::decode(serde::Reader& r) {
  switch (static_cast<ValueType>(r.u8())) {
    case ValueType::integer:
      return integer(r.svarint());
    case ValueType::gauge:
      return gauge(r.varint());
    case ValueType::counter:
      return counter(r.varint());
    case ValueType::timeticks:
      return timeticks(r.varint());
    case ValueType::octet_string:
      return octets(std::string(r.view_string()));
    case ValueType::object_id: {
      const std::uint64_t count = r.varint();
      if (count > 128) r.fail(Errc::malformed, "OID too long");
      // An arc takes at least one byte, so the input present bounds the
      // reservation.
      std::vector<std::uint32_t> arcs;
      arcs.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(count, r.remaining())));
      for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
        const std::uint64_t arc = r.varint();
        if (arc > UINT32_MAX) r.fail(Errc::malformed, "OID arc overflow");
        arcs.push_back(static_cast<std::uint32_t>(arc));
      }
      return object_id(Oid(std::move(arcs)));
    }
    case ValueType::null:
      return Value{};
  }
  r.fail(Errc::malformed, "unknown value type tag");
  return Value{};
}

}  // namespace collabqos::snmp
