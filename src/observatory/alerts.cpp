#include "collabqos/observatory/alerts.hpp"

#include <limits>

#include "collabqos/core/events.hpp"

namespace collabqos::observatory {

std::string_view to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::ok: return "ok";
    case Severity::warning: return "warning";
    case Severity::critical: return "critical";
  }
  return "?";
}

AlertEngine::AlertEngine(TimeSeriesSampler& sampler) : sampler_(sampler) {
  auto& registry = telemetry::MetricsRegistry::global();
  stats_.attach(registry);
  active_gauge_ = &registry.gauge("observatory.alerts.active");
  sampler.on_tick([this](sim::TimePoint now) { evaluate(now); });
}

void AlertEngine::add_rule(SloRule rule) { rules_.push_back(std::move(rule)); }

void AlertEngine::evaluate(sim::TimePoint now) {
  ++stats_.evaluations;
  for (const SloRule& rule : rules_) {
    if (!rule.host.empty() || rule.kind == RuleKind::absence) {
      evaluate_rule(rule, rule.host, sampler_.find(rule.host, rule.metric),
                    now);
      continue;
    }
    // Wildcard host: every host currently carrying the metric is an
    // independent alert instance.
    sampler_.visit([&](const SeriesKey& key, const TimeSeries& series) {
      if (key.metric == rule.metric) {
        evaluate_rule(rule, key.host, &series, now);
      }
    });
  }
}

void AlertEngine::evaluate_rule(const SloRule& rule, std::string_view host,
                                const TimeSeries* series,
                                sim::TimePoint now) {
  if (rule.kind == RuleKind::absence) {
    // A series that never appeared, or stopped updating, is the breach.
    const double silent_s =
        (series == nullptr || series->empty())
            ? std::numeric_limits<double>::infinity()
            : (now - series->back().time).as_seconds();
    step_instance(rule, host, silent_s, now);
    return;
  }
  if (series == nullptr || series->empty()) {
    return;  // nothing to judge; threshold rules wait for data
  }
  const SeriesPoint& point = series->back();
  const double signal =
      rule.signal == Signal::rate ? point.rate : point.value;
  step_instance(rule, host, signal, now);
}

Severity AlertEngine::raw_severity(const SloRule& rule,
                                   double signal) const noexcept {
  if (rule.kind == RuleKind::lower) {
    if (signal <= rule.critical) return Severity::critical;
    if (signal <= rule.warning) return Severity::warning;
    return Severity::ok;
  }
  // upper and absence: breach on rising signal
  if (signal >= rule.critical) return Severity::critical;
  if (signal >= rule.warning) return Severity::warning;
  return Severity::ok;
}

bool AlertEngine::inside_clear_band(const SloRule& rule, double signal,
                                    Severity from) const noexcept {
  const double threshold =
      from == Severity::critical ? rule.critical : rule.warning;
  if (rule.kind == RuleKind::lower) {
    return signal > threshold * (1.0 + rule.hysteresis);
  }
  return signal < threshold * (1.0 - rule.hysteresis);
}

void AlertEngine::step_instance(const SloRule& rule, std::string_view host,
                                double signal, sim::TimePoint now) {
  Instance& instance =
      instances_[InstanceKey{rule.name, std::string(host)}];
  const Severity raw = raw_severity(rule, signal);
  if (raw == instance.state) {
    instance.pending = false;
    instance.clearing = false;
    return;
  }
  if (raw > instance.state) {
    instance.clearing = false;
    if (!instance.pending || instance.pending_target != raw) {
      instance.pending = true;
      instance.pending_target = raw;
      instance.pending_since = now;
    }
    if (now - instance.pending_since >= rule.for_duration) {
      transition(rule, host, instance, raw, signal, now);
    }
    return;
  }
  // De-escalation: the signal must sit inside the hysteresis band of the
  // *current* severity's threshold for clear_duration before we step
  // down (to whatever severity the signal now supports).
  instance.pending = false;
  if (!inside_clear_band(rule, signal, instance.state)) {
    instance.clearing = false;
    return;
  }
  if (!instance.clearing) {
    instance.clearing = true;
    instance.clearing_since = now;
  }
  if (now - instance.clearing_since >= rule.clear_duration) {
    transition(rule, host, instance, raw, signal, now);
  }
}

void AlertEngine::transition(const SloRule& rule, std::string_view host,
                             Instance& instance, Severity to, double value,
                             sim::TimePoint now) {
  const Severity from = instance.state;
  instance.state = to;
  instance.pending = false;
  instance.clearing = false;
  if (to > from) {
    ++stats_.raised;
  } else if (to == Severity::ok) {
    ++stats_.cleared;
  }
  active_gauge_->set(static_cast<double>(active()));

  AlertTransition record;
  record.time = now;
  record.rule = rule.name;
  record.metric = rule.metric;
  record.host = std::string(host);
  record.from = from;
  record.to = to;
  record.value = value;
  if (history_.size() >= kHistoryCapacity) history_.pop_front();
  history_.push_back(record);

  if (peer_ == nullptr) return;
  // Alerts ride the session substrate as ordinary semantic messages:
  // the selector admits everyone, the content describes the alert, and
  // receivers opt in with their own interest selectors.
  pubsub::SemanticMessage message;
  message.event_type = std::string(core::events::kAlert);
  message.content.set("kind", "alert");
  message.content.set("severity", std::string(to_string(to)));
  message.content.set("previous", std::string(to_string(from)));
  message.content.set("rule", record.rule);
  message.content.set("metric", record.metric);
  message.content.set("host", record.host.empty() ? std::string("local")
                                                  : record.host);
  message.content.set("value", value);
  message.content.set("time.s", now.as_seconds());
  if (peer_->publish(std::move(message)).ok()) ++stats_.published;
}

Severity AlertEngine::severity(std::string_view rule,
                               std::string_view host) const {
  const auto it =
      instances_.find(InstanceKey{std::string(rule), std::string(host)});
  return it == instances_.end() ? Severity::ok : it->second.state;
}

std::size_t AlertEngine::active() const {
  std::size_t n = 0;
  for (const auto& [key, instance] : instances_) {
    if (instance.state > Severity::ok) ++n;
  }
  return n;
}

}  // namespace collabqos::observatory
