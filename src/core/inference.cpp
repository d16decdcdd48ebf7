#include "collabqos/core/inference.hpp"

#include <algorithm>
#include <cmath>

#include "collabqos/telemetry/metrics.hpp"

namespace collabqos::core {

int CpuLoadMapping::packets_for(double cpu_load_percent) const noexcept {
  if (cpu_load_percent <= low_load) return packets_at_low;
  if (cpu_load_percent >= high_load) return packets_at_high;
  const double fraction =
      (cpu_load_percent - low_load) / (high_load - low_load);
  const double packets =
      packets_at_low + fraction * (packets_at_high - packets_at_low);
  return static_cast<int>(std::lround(packets));
}

InferenceEngine::InferenceEngine(QoSContract contract,
                                 PolicyDatabase policies,
                                 CpuLoadMapping cpu_mapping)
    : contract_(std::move(contract)),
      policies_(std::move(policies)),
      cpu_mapping_(cpu_mapping) {}

AdaptationDecision InferenceEngine::decide(
    const pubsub::AttributeSet& state) const {
  // Registry-owned counters: every engine instance shares the process
  // totals (engines are copied around freely, so per-instance attachment
  // would double-count).
  static telemetry::Counter& decisions =
      telemetry::MetricsRegistry::global().counter("core.inference.decisions");
  static telemetry::Counter& unsatisfiable =
      telemetry::MetricsRegistry::global().counter(
          "core.inference.contract_unsatisfiable");
  ++decisions;
  AdaptationDecision decision;
  decision.violated_constraints = contract_.violations(state);

  int packets = contract_.max_packets;

  // Built-in CPU mapping.
  if (const pubsub::AttributeValue* cpu = state.find("cpu.load")) {
    if (const auto load = cpu->as_number()) {
      packets = std::min(packets, cpu_mapping_.packets_for(*load));
    }
  }

  // Policy database (page-fault ladder, network-quality rules, user
  // rules).
  const PolicyOutcome outcome = policies_.evaluate(state);
  decision.matched_rules = outcome.matched_rules;
  if (outcome.max_packets) packets = std::min(packets, *outcome.max_packets);
  if (outcome.max_resolution_fraction) {
    const int cap = static_cast<int>(std::floor(
        *outcome.max_resolution_fraction * contract_.max_packets));
    packets = std::min(packets, cap);
  }

  media::Modality modality = contract_.preferred_modality;
  if (outcome.max_modality) {
    modality = weaker_modality(modality, *outcome.max_modality);
  }

  // Contract clamps: quality floor and modality floor.
  if (contract_.min_packets > contract_.max_packets) {
    decision.contract_satisfiable = false;
    ++unsatisfiable;
  }
  packets = std::clamp(packets, std::min(contract_.min_packets,
                                         contract_.max_packets),
                       contract_.max_packets);
  if (modality_rank(modality) < modality_rank(contract_.min_modality)) {
    // The state demands weaker than the user tolerates: honour the
    // user's floor (the contract outranks advisory policy) but surface
    // the tension via the matched-rules list already recorded.
    modality = contract_.min_modality;
  }

  decision.packets = packets;
  decision.modality = modality;
  decision.resolution_fraction =
      contract_.max_packets > 0
          ? static_cast<double>(packets) / contract_.max_packets
          : 0.0;
  return decision;
}

}  // namespace collabqos::core
