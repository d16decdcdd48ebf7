#include "collabqos/snmp/oid.hpp"

namespace collabqos::snmp {

bool Oid::is_prefix_of(const Oid& other) const noexcept {
  if (arcs_.size() > other.arcs_.size()) return false;
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    if (arcs_[i] != other.arcs_[i]) return false;
  }
  return true;
}

Oid Oid::child(std::uint32_t arc) const {
  std::vector<std::uint32_t> arcs = arcs_;
  arcs.push_back(arc);
  return Oid(std::move(arcs));
}

Oid Oid::concat(const Oid& suffix) const {
  std::vector<std::uint32_t> arcs = arcs_;
  arcs.insert(arcs.end(), suffix.arcs_.begin(), suffix.arcs_.end());
  return Oid(std::move(arcs));
}

std::string Oid::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    if (i != 0) out += '.';
    out += std::to_string(arcs_[i]);
  }
  return out;
}

namespace oids {

Oid sys_descr() { return {1, 3, 6, 1, 2, 1, 1, 1, 0}; }
Oid sys_uptime() { return {1, 3, 6, 1, 2, 1, 1, 3, 0}; }
Oid sys_name() { return {1, 3, 6, 1, 2, 1, 1, 5, 0}; }
Oid hr_processor_load() { return {1, 3, 6, 1, 2, 1, 25, 3, 3, 1, 2, 1}; }
Oid if_in_octets() { return {1, 3, 6, 1, 2, 1, 2, 2, 1, 10, 1}; }
Oid if_out_octets() { return {1, 3, 6, 1, 2, 1, 2, 2, 1, 16, 1}; }
Oid if_in_packets() { return {1, 3, 6, 1, 2, 1, 2, 2, 1, 11, 1}; }
Oid if_out_packets() { return {1, 3, 6, 1, 2, 1, 2, 2, 1, 17, 1}; }
Oid tassl_root() { return {1, 3, 6, 1, 4, 1, 26510}; }
Oid tassl_cpu_load() { return tassl_root().concat({1, 1, 0}); }
Oid tassl_page_faults() { return tassl_root().concat({1, 2, 0}); }
Oid tassl_free_memory() { return tassl_root().concat({1, 3, 0}); }
Oid tassl_if_utilization() { return tassl_root().concat({1, 4, 0}); }
Oid tassl_bandwidth() { return tassl_root().concat({1, 5, 0}); }
Oid tassl_telemetry_root() { return tassl_root().child(10); }
Oid tassl_telemetry_count() {
  return tassl_telemetry_root().concat({0, 0});
}
Oid tassl_telemetry_name(std::uint32_t export_id) {
  return tassl_telemetry_root().concat({1, export_id, 0});
}
Oid tassl_telemetry_value(std::uint32_t export_id) {
  return tassl_telemetry_root().concat({2, export_id, 0});
}

}  // namespace oids

}  // namespace collabqos::snmp
