// SNMP protocol data units: community-string message framing around
// GET / GETNEXT / SET / RESPONSE / TRAP operations (SNMPv1/v2c shape).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "collabqos/serde/wire.hpp"
#include "collabqos/snmp/oid.hpp"
#include "collabqos/snmp/value.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::snmp {

/// Conventional agent port (the real 161). Protocol-level constant shared
/// by agents and managers.
inline constexpr std::uint16_t kAgentPort = 161;
/// Conventional trap sink port (the real 162).
inline constexpr std::uint16_t kTrapPort = 162;

struct VarBind {
  Oid oid;
  Value value;

  friend bool operator==(const VarBind& a, const VarBind& b) noexcept {
    return a.oid == b.oid && a.value == b.value;
  }
};

enum class PduType : std::uint8_t {
  get = 0,
  get_next = 1,
  set = 2,
  response = 3,
  trap = 4,
  /// v2c GETBULK. As in the real protocol, the request reuses the error
  /// fields: error_status carries non-repeaters (always 0 here) and
  /// error_index carries max-repetitions.
  get_bulk = 5,
};

enum class ErrorStatus : std::uint8_t {
  no_error = 0,
  too_big = 1,
  no_such_name = 2,
  bad_value = 3,
  read_only = 4,
  gen_err = 5,
  no_access = 6,   ///< v2c-style: community lacks rights
};

[[nodiscard]] std::string_view to_string(PduType type) noexcept;
[[nodiscard]] std::string_view to_string(ErrorStatus status) noexcept;

struct Pdu {
  PduType type = PduType::get;
  std::string community;
  std::uint32_t request_id = 0;
  ErrorStatus error_status = ErrorStatus::no_error;
  std::uint32_t error_index = 0;  ///< 1-based varbind index, 0 = none
  std::vector<VarBind> bindings;

  /// The BER message, built in one pass from its tail.
  [[nodiscard]] serde::Bytes encode() const;
  [[nodiscard]] static Result<Pdu> decode(
      std::span<const std::uint8_t> bytes);
  /// decode() into `out`, reusing its buffers (a long-lived agent decodes
  /// every request into one Pdu). `out` is unspecified after a failure.
  [[nodiscard]] static Status decode_into(std::span<const std::uint8_t> bytes,
                                          Pdu& out);

  /// Hard cap on varbinds per PDU, mirroring practical SNMP limits.
  static constexpr std::size_t kMaxBindings = 64;
};

}  // namespace collabqos::snmp
