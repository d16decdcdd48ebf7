// SNMP object identifiers. Lexicographic ordering over sub-identifier
// sequences is what GETNEXT tree walks are built on, so Oid is a value
// type with total order.
#pragma once

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "collabqos/util/result.hpp"

namespace collabqos::snmp {

class Oid {
 public:
  Oid() = default;
  Oid(std::initializer_list<std::uint32_t> arcs) : arcs_(arcs) {}
  explicit Oid(std::vector<std::uint32_t> arcs) : arcs_(std::move(arcs)) {}

  [[nodiscard]] const std::vector<std::uint32_t>& arcs() const noexcept {
    return arcs_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return arcs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return arcs_.empty(); }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const {
    return arcs_[i];
  }

  /// True when `this` is a prefix of (or equal to) `other`.
  [[nodiscard]] bool is_prefix_of(const Oid& other) const noexcept;

  /// This OID extended by additional arcs (e.g. instance suffix ".0").
  [[nodiscard]] Oid child(std::uint32_t arc) const;
  [[nodiscard]] Oid concat(const Oid& suffix) const;

  [[nodiscard]] std::string to_string() const;

  friend auto operator<=>(const Oid& a, const Oid& b) noexcept {
    return a.arcs_ <=> b.arcs_;
  }
  friend bool operator==(const Oid& a, const Oid& b) noexcept {
    return a.arcs_ == b.arcs_;
  }

 private:
  std::vector<std::uint32_t> arcs_;
};

/// Well-known arcs used by the framework.
namespace oids {

/// mgmt.mib-2.system.sysDescr.0
[[nodiscard]] Oid sys_descr();
/// mgmt.mib-2.system.sysUpTime.0
[[nodiscard]] Oid sys_uptime();
/// mgmt.mib-2.system.sysName.0
[[nodiscard]] Oid sys_name();
/// host-resources hrProcessorLoad (single-CPU instance).
[[nodiscard]] Oid hr_processor_load();
/// mgmt.mib-2.interfaces.ifTable: octet/packet counters of interface 1
/// (what routers and switches expose through their standard agents).
[[nodiscard]] Oid if_in_octets();
[[nodiscard]] Oid if_out_octets();
[[nodiscard]] Oid if_in_packets();
[[nodiscard]] Oid if_out_packets();
/// Subtree root for the framework's embedded extension agent
/// (enterprises.26510 — "TASSL" — chosen inside the private arc).
[[nodiscard]] Oid tassl_root();
/// extension: CPU load percent (gauge, 0..100).
[[nodiscard]] Oid tassl_cpu_load();
/// extension: page faults in the last observation window (gauge).
[[nodiscard]] Oid tassl_page_faults();
/// extension: free memory in KiB (gauge).
[[nodiscard]] Oid tassl_free_memory();
/// extension: primary interface utilisation percent (gauge).
[[nodiscard]] Oid tassl_if_utilization();
/// extension: available bandwidth estimate in kbit/s (gauge).
[[nodiscard]] Oid tassl_bandwidth();

/// Self-export subtree (enterprises.26510.10): the framework's own
/// telemetry registry published as managed objects (DESIGN.md §9).
[[nodiscard]] Oid tassl_telemetry_root();
/// telemetry.0.0: number of exported metric families (gauge).
[[nodiscard]] Oid tassl_telemetry_count();
/// telemetry.1.<export_id>.0: family name (octets) — the directory.
[[nodiscard]] Oid tassl_telemetry_name(std::uint32_t export_id);
/// telemetry.2.<export_id>.0: family value (counter/gauge).
[[nodiscard]] Oid tassl_telemetry_value(std::uint32_t export_id);

}  // namespace oids

}  // namespace collabqos::snmp
