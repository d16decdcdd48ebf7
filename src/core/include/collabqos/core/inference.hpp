// The inference engine (paper §5.2): combines the QoS contract, the
// policy database and the current system/network state to "determine the
// amount of information that can be processed on the multicast data
// channel" — concretely: how many progressive image packets to accept
// and which modality to present.
#pragma once

#include <string>
#include <vector>

#include "collabqos/core/contract.hpp"
#include "collabqos/core/policy.hpp"
#include "collabqos/pubsub/attribute.hpp"

namespace collabqos::core {

/// The engine's answer for the current state.
struct AdaptationDecision {
  int packets = 16;                ///< image packets to accept (0..max)
  media::Modality modality = media::Modality::image;
  double resolution_fraction = 1.0;  ///< packets / contract.max_packets
  bool contract_satisfiable = true;  ///< false if contract floor > ceiling
  std::vector<std::string> matched_rules;
  std::vector<std::string> violated_constraints;
};

/// Built-in CPU-load mapping (paper Figure 7: "CPU load variation from 30
/// to 100% results in a drop in the number of image packets accepted from
/// 16 to 0"): linear between the endpoints, clamped outside.
struct CpuLoadMapping {
  double low_load = 30.0;
  double high_load = 100.0;
  int packets_at_low = 16;
  int packets_at_high = 0;

  [[nodiscard]] int packets_for(double cpu_load_percent) const noexcept;
};

class InferenceEngine {
 public:
  InferenceEngine(QoSContract contract, PolicyDatabase policies,
                  CpuLoadMapping cpu_mapping = {});

  /// Decide from a state attribute snapshot (keys: "cpu.load",
  /// "page.faults", "net.loss.fraction", "net.jitter.ms", ...).
  [[nodiscard]] AdaptationDecision decide(
      const pubsub::AttributeSet& state) const;

  [[nodiscard]] const QoSContract& contract() const noexcept {
    return contract_;
  }
  [[nodiscard]] QoSContract& contract() noexcept { return contract_; }
  [[nodiscard]] PolicyDatabase& policies() noexcept { return policies_; }
  [[nodiscard]] const PolicyDatabase& policies() const noexcept {
    return policies_;
  }

 private:
  QoSContract contract_;
  PolicyDatabase policies_;
  CpuLoadMapping cpu_mapping_;
};

}  // namespace collabqos::core
