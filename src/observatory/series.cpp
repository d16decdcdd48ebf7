#include "collabqos/observatory/series.hpp"

#include <algorithm>

#include "collabqos/snmp/oid.hpp"
#include "collabqos/util/logging.hpp"

namespace collabqos::observatory {

namespace {
constexpr std::string_view kComponent = "observatory.sampler";
}

SeriesKind series_kind(telemetry::InstrumentKind kind) noexcept {
  switch (kind) {
    case telemetry::InstrumentKind::counter: return SeriesKind::counter;
    case telemetry::InstrumentKind::gauge: return SeriesKind::gauge;
    case telemetry::InstrumentKind::histogram: return SeriesKind::histogram;
  }
  return SeriesKind::gauge;
}

// -------------------------------------------------------------- TimeSeries

void TimeSeries::append(SeriesPoint point) {
  if (!points_.empty()) {
    const SeriesPoint& previous = points_.back();
    const double dt = (point.time - previous.time).as_seconds();
    if (dt > 0.0) {
      double delta = point.value - previous.value;
      if (kind_ != SeriesKind::gauge && delta < 0.0) {
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
  Remote remote;
  remote.host = std::move(host);
  remote.manager = &manager;
  remote.agent = agent;
  remote.community = std::move(community);
  remotes_.push_back(std::move(remote));
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
    TimeSeries& series =
        series_slot("", view.name, series_kind(view.kind));
    SeriesPoint point;
    point.time = now;
    point.value = view.kind == telemetry::InstrumentKind::histogram
                      ? static_cast<double>(view.count)
                      : view.value;
    point.p50 = view.p50;
    point.p99 = view.p99;
    series.append(point);
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
          CQ_DEBUG(kComponent) << "walk of " << remote.host
                               << " failed: " << walked.error().message;
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
  const snmp::Oid root = snmp::oids::tassl_telemetry_root();
  const std::size_t base = root.size();
  for (const snmp::VarBind& binding : bindings) {
    if (binding.oid.size() != base + 3) continue;
    const std::uint32_t table = binding.oid[base];
    const std::uint32_t export_id = binding.oid[base + 1];
    if (table == 1) {
      if (auto name = binding.value.as_octets()) {
        remote.directory[export_id] = std::move(name).take();
      }
      continue;
    }
    if (table != 2) continue;
    const auto name_it = remote.directory.find(export_id);
    if (name_it == remote.directory.end()) continue;
    const auto value = binding.value.as_number();
    if (!value) continue;
    const SeriesKind kind = binding.value.type() == snmp::ValueType::counter
                                ? SeriesKind::counter
                                : SeriesKind::gauge;
    ingest(remote.host, name_it->second, kind, value.value(), now);
    ++stats_.remote_points;
  }
}

void TimeSeriesSampler::ingest(std::string_view host, std::string_view metric,
                               SeriesKind kind, double value,
                               sim::TimePoint time, double p50, double p99) {
  SeriesPoint point;
  point.time = time;
  point.value = value;
  point.p50 = p50;
  point.p99 = p99;
  series_slot(host, metric, kind).append(point);
}

TimeSeries& TimeSeriesSampler::series_slot(std::string_view host,
                                           std::string_view metric,
                                           SeriesKind kind) {
  auto host_it = series_.find(host);
  if (host_it == series_.end()) {
    host_it = series_
                  .emplace(std::string(host),
                           std::map<std::string, TimeSeries, std::less<>>{})
                  .first;
  }
  auto metric_it = host_it->second.find(metric);
  if (metric_it == host_it->second.end()) {
    metric_it = host_it->second
                    .emplace(std::string(metric),
                             TimeSeries(kind, options_.capacity))
                    .first;
  }
  return metric_it->second;
}

const TimeSeries* TimeSeriesSampler::find(std::string_view host,
                                          std::string_view metric) const {
  const auto host_it = series_.find(host);
  if (host_it == series_.end()) return nullptr;
  const auto metric_it = host_it->second.find(metric);
  return metric_it == host_it->second.end() ? nullptr : &metric_it->second;
}

std::size_t TimeSeriesSampler::series_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [host, metrics] : series_) n += metrics.size();
  return n;
}

void TimeSeriesSampler::visit(
    const std::function<void(const SeriesKey&, const TimeSeries&)>& fn)
    const {
  SeriesKey key;
  for (const auto& [host, metrics] : series_) {
    key.host = host;
    for (const auto& [metric, series] : metrics) {
      key.metric = metric;
      fn(key, series);
    }
  }
}

void TimeSeriesSampler::run_hooks(sim::TimePoint now) {
  for (const TickHook& hook : hooks_) hook(now);
}

}  // namespace collabqos::observatory
