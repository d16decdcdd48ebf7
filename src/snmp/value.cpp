#include "collabqos/snmp/value.hpp"

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

Value Value::octets(std::string_view v) {
  Value out;
  out.data_ = Octets(v.data(), v.size());
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

Result<std::string_view> Value::as_octets() const {
  if (type_ != ValueType::octet_string) {
    return Error{Errc::malformed, "value is not OCTET STRING"};
  }
  const Octets& octets = std::get<Octets>(data_);
  return std::string_view(octets.data(), octets.size());
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
      return "STRING: " + std::string(as_octets().value());
    case ValueType::object_id:
      return "OID: " + std::get<Oid>(data_).to_string();
    case ValueType::null:
      return "NULL";
  }
  return "?";
}

}  // namespace collabqos::snmp
