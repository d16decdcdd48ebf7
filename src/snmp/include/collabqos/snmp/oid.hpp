// SNMP object identifiers. Lexicographic ordering over sub-identifier
// sequences is what GETNEXT tree walks are built on, so Oid is a value
// type with total order.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

#include "collabqos/util/inline_array.hpp"

namespace collabqos::snmp {

class Oid {
 public:
  /// Arcs held inside the object. The longest OID the framework's MIBs
  /// register is hrProcessorLoad's 12 arcs (the tassl telemetry objects
  /// have 11), so no registered OID, and no request for one, allocates;
  /// a longer OID decoded off the wire moves to the heap.
  static constexpr std::size_t kInlineArcs = 12;

  constexpr Oid() = default;
  constexpr Oid(std::initializer_list<std::uint32_t> arcs)
      : arcs_(arcs.begin(), arcs.size()) {}
  constexpr explicit Oid(std::span<const std::uint32_t> arcs)
      : arcs_(arcs.data(), arcs.size()) {}

  [[nodiscard]] constexpr std::span<const std::uint32_t> arcs()
      const noexcept {
    return arcs_.span();
  }
  [[nodiscard]] constexpr std::size_t size() const noexcept {
    return arcs_.size();
  }
  [[nodiscard]] constexpr bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] constexpr std::uint32_t operator[](std::size_t i) const {
    return arcs_.data()[i];
  }

  /// Appends one arc (decoders build OIDs this way).
  void push_back(std::uint32_t arc) { arcs_.push_back(arc); }

  /// True when `this` is a prefix of (or equal to) `other`.
  [[nodiscard]] bool is_prefix_of(const Oid& other) const noexcept {
    return size() <= other.size() &&
           std::equal(arcs_.data(), arcs_.data() + size(), other.arcs_.data());
  }

  /// This OID extended by additional arcs (e.g. instance suffix ".0").
  [[nodiscard]] Oid concat(const Oid& suffix) const;

  [[nodiscard]] std::string to_string() const;

  friend std::strong_ordering operator<=>(const Oid& a,
                                          const Oid& b) noexcept {
    const std::span<const std::uint32_t> x = a.arcs();
    const std::span<const std::uint32_t> y = b.arcs();
    return std::lexicographical_compare_three_way(x.begin(), x.end(),
                                                  y.begin(), y.end());
  }
  friend bool operator==(const Oid& a, const Oid& b) noexcept {
    return a.arcs_ == b.arcs_;
  }

 private:
  InlineArray<std::uint32_t, kInlineArcs> arcs_;
};

/// Well-known arcs used by the framework. Each is a constant: reading one
/// copies nothing.
namespace oids {

inline constexpr Oid kSysDescr{1, 3, 6, 1, 2, 1, 1, 1, 0};
inline constexpr Oid kSysUptime{1, 3, 6, 1, 2, 1, 1, 3, 0};
inline constexpr Oid kSysName{1, 3, 6, 1, 2, 1, 1, 5, 0};
inline constexpr Oid kHrProcessorLoad{1, 3, 6, 1, 2, 1, 25, 3, 3, 1, 2, 1};
inline constexpr Oid kIfInOctets{1, 3, 6, 1, 2, 1, 2, 2, 1, 10, 1};
inline constexpr Oid kIfOutOctets{1, 3, 6, 1, 2, 1, 2, 2, 1, 16, 1};
inline constexpr Oid kIfInPackets{1, 3, 6, 1, 2, 1, 2, 2, 1, 11, 1};
inline constexpr Oid kIfOutPackets{1, 3, 6, 1, 2, 1, 2, 2, 1, 17, 1};
inline constexpr Oid kTasslRoot{1, 3, 6, 1, 4, 1, 26510};
inline constexpr Oid kTasslCpuLoad{1, 3, 6, 1, 4, 1, 26510, 1, 1, 0};
inline constexpr Oid kTasslPageFaults{1, 3, 6, 1, 4, 1, 26510, 1, 2, 0};
inline constexpr Oid kTasslFreeMemory{1, 3, 6, 1, 4, 1, 26510, 1, 3, 0};
inline constexpr Oid kTasslIfUtilization{1, 3, 6, 1, 4, 1, 26510, 1, 4, 0};
inline constexpr Oid kTasslBandwidth{1, 3, 6, 1, 4, 1, 26510, 1, 5, 0};
inline constexpr Oid kTasslTelemetryRoot{1, 3, 6, 1, 4, 1, 26510, 10};
inline constexpr Oid kTasslTelemetryCount{1, 3, 6, 1, 4, 1, 26510, 10, 0, 0};
static_assert(kHrProcessorLoad.size() == Oid::kInlineArcs,
              "the longest registered OID sets the inline arc count");

/// mgmt.mib-2.system.sysDescr.0
[[nodiscard]] constexpr const Oid& sys_descr() noexcept { return kSysDescr; }
/// mgmt.mib-2.system.sysUpTime.0
[[nodiscard]] constexpr const Oid& sys_uptime() noexcept { return kSysUptime; }
/// mgmt.mib-2.system.sysName.0
[[nodiscard]] constexpr const Oid& sys_name() noexcept { return kSysName; }
/// host-resources hrProcessorLoad (single-CPU instance).
[[nodiscard]] constexpr const Oid& hr_processor_load() noexcept {
  return kHrProcessorLoad;
}
/// mgmt.mib-2.interfaces.ifTable: octet/packet counters of interface 1
/// (what routers and switches expose through their standard agents).
[[nodiscard]] constexpr const Oid& if_in_octets() noexcept {
  return kIfInOctets;
}
[[nodiscard]] constexpr const Oid& if_out_octets() noexcept {
  return kIfOutOctets;
}
[[nodiscard]] constexpr const Oid& if_in_packets() noexcept {
  return kIfInPackets;
}
[[nodiscard]] constexpr const Oid& if_out_packets() noexcept {
  return kIfOutPackets;
}
/// Subtree root for the framework's embedded extension agent
/// (enterprises.26510 — "TASSL" — chosen inside the private arc).
[[nodiscard]] constexpr const Oid& tassl_root() noexcept { return kTasslRoot; }
/// extension: CPU load percent (gauge, 0..100).
[[nodiscard]] constexpr const Oid& tassl_cpu_load() noexcept {
  return kTasslCpuLoad;
}
/// extension: page faults in the last observation window (gauge).
[[nodiscard]] constexpr const Oid& tassl_page_faults() noexcept {
  return kTasslPageFaults;
}
/// extension: free memory in KiB (gauge).
[[nodiscard]] constexpr const Oid& tassl_free_memory() noexcept {
  return kTasslFreeMemory;
}
/// extension: primary interface utilisation percent (gauge).
[[nodiscard]] constexpr const Oid& tassl_if_utilization() noexcept {
  return kTasslIfUtilization;
}
/// extension: available bandwidth estimate in kbit/s (gauge).
[[nodiscard]] constexpr const Oid& tassl_bandwidth() noexcept {
  return kTasslBandwidth;
}

/// Self-export subtree (enterprises.26510.10): the framework's own
/// telemetry registry published as managed objects (DESIGN.md §9).
[[nodiscard]] constexpr const Oid& tassl_telemetry_root() noexcept {
  return kTasslTelemetryRoot;
}
/// telemetry.0.0: number of exported metric families (gauge).
[[nodiscard]] constexpr const Oid& tassl_telemetry_count() noexcept {
  return kTasslTelemetryCount;
}
/// telemetry.1.<export_id>.0: family name (octets) — the directory.
[[nodiscard]] constexpr Oid tassl_telemetry_name(std::uint32_t export_id) {
  return {1, 3, 6, 1, 4, 1, 26510, 10, 1, export_id, 0};
}
/// telemetry.2.<export_id>.0: family value (counter/gauge).
[[nodiscard]] constexpr Oid tassl_telemetry_value(std::uint32_t export_id) {
  return {1, 3, 6, 1, 4, 1, 26510, 10, 2, export_id, 0};
}

}  // namespace oids

}  // namespace collabqos::snmp
