// QoS Observatory, layer 2 (DESIGN.md §10): the SLO alert engine.
//
// Declarative rules (threshold, rate-of-change, absence — each with
// for-duration damping and hysteresis on clear) are evaluated against
// the sampler's series after every sweep. State transitions
// (ok -> warning -> critical -> ok) are recorded in the metrics
// registry *and* published as ordinary semantic messages over the
// session substrate (S-ToPSS's observation that semantic pub/sub is
// itself the right channel for system events): any client subscribes
// with a selector like `kind == 'alert' and severity == 'critical'`,
// and the wired client feeds received alerts into its inference inputs
// next to SNMP load and RTCP loss (core/client.cpp, DecisionAuditLog).
#pragma once

#include <deque>
#include <map>
#include <string>
#include <string_view>

#include "collabqos/observatory/series.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/telemetry/counter_set.hpp"

namespace collabqos::observatory {

enum class Severity : std::uint8_t { ok = 0, warning = 1, critical = 2 };

[[nodiscard]] std::string_view to_string(Severity severity) noexcept;

enum class RuleKind : std::uint8_t {
  upper,    ///< breach when the signal rises to a threshold
  lower,    ///< breach when the signal falls to a threshold
  absence,  ///< breach when no sample arrives for `threshold` seconds
};

/// Which component of a point a rule reads. Rate is the natural signal
/// for counter families (events/s); level for gauges.
enum class Signal : std::uint8_t { level, rate };

/// One service-level objective over one metric.
struct SloRule {
  std::string name;    ///< rule identity ("loss-rate", "cpu-saturated")
  std::string metric;  ///< series metric (registry family name)
  /// Series host filter; "" evaluates the rule against every host that
  /// carries the metric (each host is an independent alert instance).
  /// For absence rules the host must be explicit — a wildcard cannot
  /// miss a series that never existed.
  std::string host;
  RuleKind kind = RuleKind::upper;
  Signal signal = Signal::level;
  /// Severity thresholds in signal units (absence: seconds without a
  /// sample). A breach of `critical` implies `warning` for upper rules
  /// (and symmetrically for lower rules).
  double warning = 0.0;
  double critical = 0.0;
  /// Escalations require the breach to hold continuously this long.
  sim::Duration for_duration{};
  /// Clears require the signal back inside the threshold by this
  /// fraction (upper: below threshold*(1-hysteresis)) ...
  double hysteresis = 0.10;
  /// ... continuously for this long. Together these stop a signal
  /// hovering at a threshold from flapping the alert.
  sim::Duration clear_duration{};
};

/// One recorded state change of a (rule, host) alert instance.
struct AlertTransition {
  sim::TimePoint time{};
  std::string rule;
  std::string metric;
  std::string host;
  Severity from = Severity::ok;
  Severity to = Severity::ok;
  double value = 0.0;  ///< the signal that drove the transition
};

/// The engine's counters, declared once (telemetry/counter_set.hpp).
#define COLLABQOS_ALERT_COUNTERS(X)                                            \
  X(evaluations, "observatory.alerts.evaluations")                             \
  X(raised, "observatory.alerts.raised") /* to a higher severity */            \
  X(cleared, "observatory.alerts.cleared") /* back to ok */                    \
  X(published, "observatory.alerts.published")

/// Point-in-time engine counters (registry families "observatory.alerts.*").
struct AlertEngineStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_ALERT_COUNTERS)
};

class AlertEngine {
 public:
  /// Transitions history() keeps; older ones are dropped first.
  static constexpr std::size_t kHistoryCapacity = 1024;

  /// Registers itself as a tick hook on `sampler`: rules re-evaluate
  /// after every sweep. The sampler must outlive the engine.
  explicit AlertEngine(TimeSeriesSampler& sampler);

  void add_rule(SloRule rule);

  /// Publish transitions on the session substrate through `peer`
  /// (content: kind=alert, severity, metric, host, rule, value,
  /// previous; event type core::events::kAlert). Pass nullptr to stop.
  /// The peer must outlive the engine.
  void publish_via(pubsub::SemanticPeer* peer) noexcept { peer_ = peer; }

  /// Evaluate every rule against the sampler's series. Runs from the
  /// sampler's tick hook; callable directly (benches, tests).
  void evaluate(sim::TimePoint now);

  [[nodiscard]] Severity severity(std::string_view rule,
                                  std::string_view host = "") const;
  /// Alert instances currently above ok.
  [[nodiscard]] std::size_t active() const;
  /// Bounded transition history, oldest first.
  [[nodiscard]] const std::deque<AlertTransition>& history() const noexcept {
    return history_;
  }
  [[nodiscard]] AlertEngineStats stats() const noexcept {
    return stats_.view();
  }

 private:
  struct InstanceKey {
    std::string rule;
    std::string host;
    auto operator<=>(const InstanceKey&) const = default;
  };
  struct Instance {
    Severity state = Severity::ok;
    /// Escalation damping: target severity and since when the signal
    /// has continuously supported it.
    Severity pending_target = Severity::ok;
    sim::TimePoint pending_since{};
    bool pending = false;
    /// Clear damping: since when the signal has continuously been
    /// inside the hysteresis band.
    sim::TimePoint clearing_since{};
    bool clearing = false;
  };

  void evaluate_rule(const SloRule& rule, std::string_view host,
                     const TimeSeries* series, sim::TimePoint now);
  void step_instance(const SloRule& rule, std::string_view host,
                     double signal, sim::TimePoint now);
  void transition(const SloRule& rule, std::string_view host,
                  Instance& instance, Severity to, double value,
                  sim::TimePoint now);
  [[nodiscard]] Severity raw_severity(const SloRule& rule,
                                      double signal) const noexcept;
  [[nodiscard]] bool inside_clear_band(const SloRule& rule, double signal,
                                       Severity from) const noexcept;

  TimeSeriesSampler& sampler_;
  pubsub::SemanticPeer* peer_ = nullptr;
  std::vector<SloRule> rules_;
  std::map<InstanceKey, Instance, std::less<>> instances_;
  std::deque<AlertTransition> history_;

  COLLABQOS_COUNTER_SET(Counters, AlertEngineStats, COLLABQOS_ALERT_COUNTERS);
  Counters stats_;
  telemetry::Gauge* active_gauge_ = nullptr;  ///< registry-owned
};

}  // namespace collabqos::observatory
