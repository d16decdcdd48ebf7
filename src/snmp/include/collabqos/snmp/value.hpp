// SMI value types carried in varbinds. A trimmed but faithful subset:
// INTEGER, Gauge32, Counter32, TimeTicks, OCTET STRING, OBJECT IDENTIFIER.
// A value has one wire form, BER inside a PDU (pdu.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "collabqos/snmp/oid.hpp"
#include "collabqos/util/inline_array.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::snmp {

enum class ValueType : std::uint8_t {
  integer = 0,      ///< signed 64-bit (SMI INTEGER widened)
  gauge = 1,        ///< non-negative, clamps (Gauge32 widened)
  counter = 2,      ///< monotonically increasing, wraps (Counter64)
  timeticks = 3,    ///< hundredths of a second
  octet_string = 4,
  object_id = 5,
  null = 6,         ///< ASN.1 NULL — the value slot of a request varbind
};

class Value {
 public:
  /// Default-constructed values are NULL (what GET/GETNEXT requests
  /// carry in the value position).
  Value() : data_(std::int64_t{0}), type_(ValueType::null) {}

  [[nodiscard]] static Value integer(std::int64_t v);
  [[nodiscard]] static Value gauge(std::uint64_t v);
  [[nodiscard]] static Value counter(std::uint64_t v);
  [[nodiscard]] static Value timeticks(std::uint64_t hundredths);
  [[nodiscard]] static Value octets(std::string_view v);
  [[nodiscard]] static Value object_id(Oid v);

  [[nodiscard]] ValueType type() const noexcept { return type_; }

  /// Typed accessors; Errc::malformed if the type does not match.
  [[nodiscard]] Result<std::int64_t> as_integer() const;
  [[nodiscard]] Result<std::uint64_t> as_unsigned() const;  ///< gauge/counter/ticks
  /// The OCTET STRING in place: valid while this value lives and is not
  /// assigned. Consumers that keep it copy it.
  [[nodiscard]] Result<std::string_view> as_octets() const;
  [[nodiscard]] Result<Oid> as_object_id() const;

  /// Best-effort numeric view (integer/gauge/counter/ticks); malformed
  /// for strings and OIDs. The inference engine consumes metrics this way.
  [[nodiscard]] Result<double> as_number() const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Value& a, const Value& b) noexcept {
    return a.type_ == b.type_ && a.data_ == b.data_;
  }

 private:
  /// Octet strings up to kInlineOctets bytes live inside the value, as
  /// OIDs do: every telemetry family name fits, so copying or decoding
  /// a directory entry does not allocate.
  static constexpr std::size_t kInlineOctets = 48;
  using Octets = InlineArray<char, kInlineOctets>;

  std::variant<std::int64_t, std::uint64_t, Octets, Oid> data_;
  ValueType type_;
};

}  // namespace collabqos::snmp
