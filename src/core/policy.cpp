#include "collabqos/core/policy.hpp"

#include <algorithm>
#include <cassert>

#include "collabqos/core/contract.hpp"

namespace collabqos::core {

void PolicyDatabase::add(PolicyRule rule) { rules_.push_back(std::move(rule)); }

PolicyOutcome PolicyDatabase::evaluate(
    const pubsub::AttributeSet& state) const {
  PolicyOutcome outcome;
  for (const PolicyRule& rule : rules_) {
    if (!rule.condition.matches(state)) continue;
    outcome.matched_rules.push_back(rule.name);
    if (rule.directive.max_packets) {
      outcome.max_packets =
          outcome.max_packets
              ? std::min(*outcome.max_packets, *rule.directive.max_packets)
              : rule.directive.max_packets;
    }
    if (rule.directive.max_modality) {
      outcome.max_modality =
          outcome.max_modality
              ? weaker_modality(*outcome.max_modality,
                                *rule.directive.max_modality)
              : rule.directive.max_modality;
    }
    if (rule.directive.max_resolution_fraction) {
      outcome.max_resolution_fraction =
          outcome.max_resolution_fraction
              ? std::min(*outcome.max_resolution_fraction,
                         *rule.directive.max_resolution_fraction)
              : rule.directive.max_resolution_fraction;
    }
  }
  return outcome;
}

PolicyDatabase PolicyDatabase::with_defaults() {
  PolicyDatabase db;
  const auto rule = [](std::string name, std::string_view condition,
                       AdaptationDirective directive) {
    auto selector = pubsub::Selector::parse(condition);
    assert(selector.ok() && "built-in rule must parse");
    return PolicyRule{std::move(name), std::move(selector).take(), directive};
  };
  // Page-fault ladder (paper Figure 6 behaviour).
  db.add(rule("pf-16", "not exists page.faults or page.faults < 44",
              {.max_packets = 16, .max_modality = {},
               .max_resolution_fraction = {}}));
  db.add(rule("pf-8", "page.faults >= 44 and page.faults < 58",
              {.max_packets = 8, .max_modality = {},
               .max_resolution_fraction = {}}));
  db.add(rule("pf-4", "page.faults >= 58 and page.faults < 72",
              {.max_packets = 4, .max_modality = {},
               .max_resolution_fraction = {}}));
  db.add(rule("pf-2", "page.faults >= 72 and page.faults < 86",
              {.max_packets = 2, .max_modality = {},
               .max_resolution_fraction = {}}));
  db.add(rule("pf-1", "page.faults >= 86",
              {.max_packets = 1, .max_modality = {},
               .max_resolution_fraction = {}}));
  // Battery guard for thin clients.
  db.add(rule("battery-text", "battery.fraction < 0.15",
              {.max_packets = {}, .max_modality = media::Modality::text,
               .max_resolution_fraction = {}}));
  // Congested interface: abstract the image to its sketch.
  db.add(rule("congested-sketch", "if.utilization > 90",
              {.max_packets = {}, .max_modality = media::Modality::sketch,
               .max_resolution_fraction = {}}));
  // Network-quality rules fed by RTCP receiver reports (paper §5.5 lists
  // bandwidth, latency and jitter among the monitored parameters).
  db.add(rule("lossy-net-sketch", "net.loss.fraction > 0.3",
              {.max_packets = {}, .max_modality = media::Modality::sketch,
               .max_resolution_fraction = {}}));
  db.add(rule("lossy-net-text", "net.loss.fraction > 0.6",
              {.max_packets = {}, .max_modality = media::Modality::text,
               .max_resolution_fraction = {}}));
  db.add(rule("jittery-net-halved", "net.jitter.ms > 80",
              {.max_packets = {}, .max_modality = {},
               .max_resolution_fraction = 0.5}));
  return db;
}

}  // namespace collabqos::core
