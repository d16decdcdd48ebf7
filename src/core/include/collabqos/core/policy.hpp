// Policy database (paper §5.2): "The inference engine serves as a policy
// database and encodes policies for information transformations."
//
// A policy rule is a semantic-selector condition over the *state*
// attribute set plus an adaptation directive. Multiple matching rules
// combine most-restrictively (fewest packets, weakest modality), so a
// battery rule and a CPU rule compose without ordering pitfalls.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "collabqos/media/media_object.hpp"
#include "collabqos/pubsub/selector.hpp"

namespace collabqos::core {

/// What a matched rule asks of the adaptation layer. Absent fields leave
/// that dimension to other rules / the built-in mappings.
struct AdaptationDirective {
  std::optional<int> max_packets;
  std::optional<media::Modality> max_modality;
  std::optional<double> max_resolution_fraction;  ///< 0..1 of full packets
};

struct PolicyRule {
  std::string name;
  pubsub::Selector condition;  ///< over state attributes
  AdaptationDirective directive;
};

/// The combined outcome of a database evaluation.
struct PolicyOutcome {
  std::optional<int> max_packets;
  std::optional<media::Modality> max_modality;
  std::optional<double> max_resolution_fraction;
  std::vector<std::string> matched_rules;
};

class PolicyDatabase {
 public:
  void add(PolicyRule rule);
  [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }

  /// Evaluate every rule against `state`; matching directives combine
  /// most-restrictively.
  [[nodiscard]] PolicyOutcome evaluate(
      const pubsub::AttributeSet& state) const;

  /// The paper-calibrated default rules:
  ///  - page-fault ladder: <44 -> 16, <58 -> 8, <72 -> 4, <86 -> 2,
  ///    >=86 -> 1 packet ("packets vary from 1 to 16 in powers of 2
  ///    corresponding to page faults varying from 30 to 100");
  ///  - battery guard: battery.fraction < 0.15 -> text only;
  ///  - congested interface: if.utilization > 90 -> sketch at most.
  [[nodiscard]] static PolicyDatabase with_defaults();

 private:
  std::vector<PolicyRule> rules_;
};

}  // namespace collabqos::core
