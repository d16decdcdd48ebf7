// Simulated host: the "Windows NT workstation" of the paper's test-bed.
// Exposes the metrics the embedded SNMP extension agent instruments:
// CPU load (%), page faults (count in the last observation window),
// free memory, and interface bandwidth utilisation.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "collabqos/sim/load_process.hpp"
#include "collabqos/sim/simulator.hpp"

namespace collabqos::sim {

/// Instantaneous host metrics snapshot (what instrumentation reads).
struct HostMetrics {
  double cpu_load_percent = 0.0;   ///< 0..100
  double page_faults = 0.0;        ///< faults observed in the last window
  double free_memory_kb = 0.0;
  /// Primary interface, 0..100. No load process drives it: it reads 0,
  /// and the host MIB exports it as such.
  double if_utilization_percent = 0.0;
};

class Host {
 public:
  Host(Simulator& simulator, std::string name);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Replace a metric driver. Hosts default to idle (constant 0 / full
  /// memory) so tests only configure what they exercise.
  void set_cpu_process(std::unique_ptr<LoadProcess> process);
  void set_page_fault_process(std::unique_ptr<LoadProcess> process);
  void set_memory_process(std::unique_ptr<LoadProcess> process);

  /// Sample all metrics at the current virtual time (clamped to their
  /// physical ranges).
  [[nodiscard]] HostMetrics metrics();

 private:
  Simulator& simulator_;
  std::string name_;
  std::unique_ptr<LoadProcess> cpu_;
  std::unique_ptr<LoadProcess> page_faults_;
  std::unique_ptr<LoadProcess> memory_;
};

}  // namespace collabqos::sim
