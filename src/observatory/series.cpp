#include "collabqos/observatory/series.hpp"

#include <algorithm>

#include "collabqos/snmp/oid.hpp"

namespace collabqos::observatory {

// -------------------------------------------------------------- TimeSeries

void TimeSeries::append(SeriesPoint point) {
  if (!points_.empty()) {
    const SeriesPoint& previous = points_.back();
    const double dt = (point.time - previous.time).as_seconds();
    if (dt > 0.0) {
      double delta = point.value - previous.value;
      if (kind_ == telemetry::InstrumentKind::counter && delta < 0.0) {
        // A cumulative count went backwards: the source reset (component
        // churn, registry reset). Rate restarts from the new total.
        delta = point.value;
      }
      point.rate = delta / dt;
    } else {
      point.rate = previous.rate;  // same-instant resample
    }
  }
  if (points_.size() >= capacity_) {
    points_.pop_front();
    ++evicted_;
  }
  points_.push_back(point);
}

double TimeSeries::max_rate_over(sim::Duration window) const {
  if (points_.empty()) return 0.0;
  const sim::TimePoint newest = points_.back().time;
  double best = 0.0;
  bool seen = false;
  for (auto it = points_.rbegin(); it != points_.rend(); ++it) {
    if (newest - it->time > window) break;
    best = seen ? std::max(best, it->rate) : it->rate;
    seen = true;
  }
  return best;
}

// ------------------------------------------------------ TimeSeriesSampler

TimeSeriesSampler::TimeSeriesSampler(sim::Simulator& simulator,
                                     telemetry::MetricsRegistry& registry,
                                     SamplerOptions options)
    : simulator_(simulator),
      registry_(registry),
      options_(options),
      timer_(simulator, options.period, [this] { sample_now(); }) {
  stats_.attach(telemetry::MetricsRegistry::global());
}

void TimeSeriesSampler::add_remote(std::string host, snmp::Manager& manager,
                                   net::NodeId agent, std::string community) {
  remotes_.push_back(
      Remote{std::move(host), &manager, agent, std::move(community), {}});
}

void TimeSeriesSampler::start() { timer_.start(); }
void TimeSeriesSampler::stop() { timer_.stop(); }
void TimeSeriesSampler::sample_now() {
  const sim::TimePoint now = simulator_.now();
  ++stats_.ticks;
  sample_local(now);
  for (Remote& remote : remotes_) walk_remote(remote);
  run_hooks(now);
}

void TimeSeriesSampler::sample_local(sim::TimePoint now) {
  registry_.visit([this, now](const telemetry::MetricView& view) {
    if (view.export_id >= local_.size()) local_.resize(view.export_id + 1);
    TimeSeries*& slot = local_[view.export_id];
    if (slot == nullptr) slot = &resolve("", view.name, view.kind);
    slot->append(SeriesPoint{now, view.value});
    ++stats_.local_points;
  });
}

void TimeSeriesSampler::walk_remote(Remote& remote) {
  ++stats_.remote_walks;
  remote.manager->bulk_walk(
      remote.agent, remote.community, snmp::oids::tassl_telemetry_root(),
      options_.bulk_repetitions,
      [this, &remote](Result<std::vector<snmp::VarBind>> walked) {
        if (!walked) {
          ++stats_.remote_failures;
          return;
        }
        const sim::TimePoint now = simulator_.now();
        ingest_walk(remote, walked.value(), now);
        run_hooks(now);
      });
}

void TimeSeriesSampler::ingest_walk(
    Remote& remote, const std::vector<snmp::VarBind>& bindings,
    sim::TimePoint now) {
  // Subtree layout (snmp/telemetry_mib.hpp): .1.<id>.0 names the family,
  // .2.<id>.0 carries its live value. The walk is lexicographic, so the
  // directory arcs arrive before the values they describe.
  const snmp::Oid& root = snmp::oids::tassl_telemetry_root();
  const std::size_t base = root.size();
  for (const snmp::VarBind& binding : bindings) {
    if (binding.oid.size() != base + 3) continue;
    const std::uint32_t table = binding.oid[base];
    const std::uint32_t export_id = binding.oid[base + 1];
    // A registry numbers its families densely from 1 and the walk holds
    // two arcs per family, so a larger id is not a family's: dropping it
    // keeps a hostile id from sizing the slot table.
    if ((table != 1 && table != 2) || export_id > bindings.size()) continue;
    if (export_id >= remote.slots.size()) remote.slots.resize(export_id + 1);
    Remote::Slot& slot = remote.slots[export_id];
    if (table == 1) {
      const auto name = binding.value.as_octets();
      if (slot.series == nullptr && name) slot.name = name.value();
      continue;
    }
    if (slot.series == nullptr && slot.name.empty()) continue;
    const auto value = binding.value.as_number();
    if (!value) continue;
    if (slot.series == nullptr) {
      slot.series = &resolve(remote.host, slot.name,
                             binding.value.type() == snmp::ValueType::counter
                                 ? telemetry::InstrumentKind::counter
                                 : telemetry::InstrumentKind::gauge);
    }
    slot.series->append(SeriesPoint{now, value.value()});
    ++stats_.remote_points;
  }
}

void TimeSeriesSampler::ingest(std::string_view host, std::string_view metric,
                               telemetry::InstrumentKind kind, double value,
                               sim::TimePoint time) {
  resolve(host, metric, kind).append(SeriesPoint{time, value});
}

TimeSeries& TimeSeriesSampler::resolve(std::string_view host,
                                       std::string_view metric,
                                       telemetry::InstrumentKind kind) {
  if (const auto it = index_.find(Address(host, metric)); it != index_.end()) {
    return *it->second;
  }
  SeriesEntry& entry = table_.emplace_back(
      SeriesEntry{std::string(host), std::string(metric),
                  TimeSeries(kind, options_.capacity)});
  index_.emplace(Address(entry.host, entry.metric), &entry.series);
  return entry.series;
}

const TimeSeries* TimeSeriesSampler::find(std::string_view host,
                                          std::string_view metric) const {
  const auto it = index_.find(Address(host, metric));
  return it == index_.end() ? nullptr : it->second;
}

void TimeSeriesSampler::run_hooks(sim::TimePoint now) {
  for (const TickHook& hook : hooks_) hook(now);
}

}  // namespace collabqos::observatory
