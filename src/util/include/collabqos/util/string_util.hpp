// String helpers shared by the selector language, SNMP OID parsing and the
// bench table printers.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace collabqos {

/// Split on a single-character delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text,
                                                  char delimiter);

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Parse a non-negative integer; nullopt on any non-digit or overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(
    std::string_view text) noexcept;

/// Parse a double via strtod semantics; nullopt unless the whole string
/// is consumed and the value is finite (no nan, no inf, no overflow).
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

}  // namespace collabqos
