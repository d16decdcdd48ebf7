#include "collabqos/observatory/alerts.hpp"

#include <algorithm>
#include <limits>

#include "collabqos/core/events.hpp"

namespace collabqos::observatory {

namespace {

Severity raw_severity(const SloRule& rule, double signal) noexcept {
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

bool inside_clear_band(const SloRule& rule, double signal,
                       Severity from) noexcept {
  const double threshold =
      from == Severity::critical ? rule.critical : rule.warning;
  if (rule.kind == RuleKind::lower) {
    return signal > threshold * (1.0 + rule.hysteresis);
  }
  return signal < threshold * (1.0 - rule.hysteresis);
}

}  // namespace

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

void AlertEngine::add_rule(SloRule rule) {
  BoundRule& bound = rules_.emplace_back();
  bound.rule = std::move(rule);
  bound.wildcard =
      bound.rule.host.empty() && bound.rule.kind != RuleKind::absence;
  if (!bound.wildcard) bound.instances.emplace_back().host = bound.rule.host;
  for (std::size_t i = 0; i < bound_; ++i) bind(bound, sampler_.entry(i));
}

void AlertEngine::bind(BoundRule& bound, const SeriesEntry& entry) {
  if (entry.metric != bound.rule.metric) return;
  std::vector<Instance>& instances = bound.instances;
  if (!bound.wildcard) {
    if (entry.host == bound.rule.host) instances[0].series = &entry.series;
    return;
  }
  // A new host joins at its place in name order.
  const auto at = std::lower_bound(
      instances.begin(), instances.end(), entry.host,
      [](const Instance& instance, const std::string& host) {
        return instance.host < host;
      });
  Instance& instance = *instances.emplace(at);
  instance.host = entry.host;
  instance.series = &entry.series;
}

void AlertEngine::evaluate(sim::TimePoint now) {
  ++stats_.evaluations;
  for (; bound_ < sampler_.series_count(); ++bound_) {
    for (BoundRule& bound : rules_) bind(bound, sampler_.entry(bound_));
  }
  for (BoundRule& bound : rules_) {
    for (Instance& instance : bound.instances) step(bound.rule, instance, now);
  }
}

void AlertEngine::step(const SloRule& rule, Instance& instance,
                       sim::TimePoint now) {
  const TimeSeries* series = instance.series;
  const bool fed = series != nullptr && !series->empty();
  double signal = 0.0;
  if (rule.kind == RuleKind::absence) {
    // A series that never appeared, or stopped updating, is the breach.
    signal = fed ? (now - series->back().time).as_seconds()
                 : std::numeric_limits<double>::infinity();
  } else if (fed) {
    const SeriesPoint& point = series->back();
    signal = rule.signal == Signal::rate ? point.rate : point.value;
  } else {
    return;  // nothing to judge; threshold rules wait for data
  }
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
      transition(rule, instance, raw, signal, now);
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
    transition(rule, instance, raw, signal, now);
  }
}

void AlertEngine::transition(const SloRule& rule, Instance& instance,
                             Severity to, double value, sim::TimePoint now) {
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

  if (history_.size() >= kHistoryCapacity) history_.pop_front();
  history_.push_back(
      {now, rule.name, rule.metric, instance.host, from, to, value});

  if (peer_ == nullptr) return;
  // Alerts ride the session substrate as ordinary semantic messages:
  // the selector admits everyone, the content describes the alert, and
  // receivers opt in with their own interest selectors.
  pubsub::SemanticMessage message;
  message.event_type = std::string(core::events::kAlert);
  message.content.set("kind", "alert");
  message.content.set("severity", std::string(to_string(to)));
  message.content.set("previous", std::string(to_string(from)));
  message.content.set("rule", rule.name);
  message.content.set("metric", rule.metric);
  message.content.set("host", instance.host.empty() ? std::string("local")
                                                    : instance.host);
  message.content.set("value", value);
  message.content.set("time.s", now.as_seconds());
  if (peer_->publish(std::move(message)).ok()) ++stats_.published;
}

Severity AlertEngine::severity(std::string_view rule,
                               std::string_view host) const {
  for (const BoundRule& bound : rules_) {
    if (bound.rule.name != rule) continue;
    for (const Instance& instance : bound.instances) {
      if (instance.host == host) return instance.state;
    }
  }
  return Severity::ok;
}

std::size_t AlertEngine::active() const {
  std::size_t n = 0;
  for (const BoundRule& bound : rules_) {
    for (const Instance& instance : bound.instances) {
      n += instance.state > Severity::ok ? 1 : 0;
    }
  }
  return n;
}

}  // namespace collabqos::observatory
