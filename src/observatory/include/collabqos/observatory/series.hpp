// QoS Observatory, layer 1 (DESIGN.md §10): time-series sampling.
//
// PR 2 gave every subsystem raw instruments; this layer gives them a
// time dimension. A TimeSeriesSampler runs on the sim clock and, every
// period, sweeps the MetricsRegistry into bounded ring-buffer series:
// counters become cumulative points with a per-second rate, gauges
// become levels. The same sampler can also observe *remote* processes by
// walking their enterprises.26510.10 telemetry subtree through an
// snmp::Manager — one node watching a fleet over the same management
// plane the inference engine already uses (paper §5.5).
//
// Series are addressed by (host, metric); host "" is the local process,
// remote hosts carry the name given to add_remote(). The AlertEngine
// (alerts.hpp) evaluates SLO rules against these series after every
// sweep.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "collabqos/sim/simulator.hpp"
#include "collabqos/snmp/manager.hpp"
#include "collabqos/telemetry/counter_set.hpp"
#include "collabqos/telemetry/metrics.hpp"

namespace collabqos::observatory {

enum class SeriesKind : std::uint8_t { counter, gauge };

[[nodiscard]] SeriesKind series_kind(telemetry::InstrumentKind kind) noexcept;

/// One sampled observation.
struct SeriesPoint {
  sim::TimePoint time{};
  /// Counters: cumulative count. Gauges: level.
  double value = 0.0;
  /// Per-second derivative against the previous retained point:
  /// counters get an event rate (resets clamp to >= 0), gauges get a
  /// signed level slope.
  double rate = 0.0;
};

/// Bounded ring of one metric's history; oldest points are evicted (and
/// counted) once `capacity` is reached.
class TimeSeries {
 public:
  TimeSeries(SeriesKind kind, std::size_t capacity)
      : kind_(kind), capacity_(capacity > 0 ? capacity : 1) {}

  /// Append a point (times must be non-decreasing); fills in
  /// `point.rate` from the previous retained point.
  void append(SeriesPoint point);

  [[nodiscard]] SeriesKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }
  /// i = 0 is the oldest retained point.
  [[nodiscard]] const SeriesPoint& at(std::size_t i) const {
    return points_[i];
  }
  [[nodiscard]] const SeriesPoint& back() const { return points_.back(); }

  /// Largest `rate` over the trailing window; 0 when empty.
  [[nodiscard]] double max_rate_over(sim::Duration window) const;

 private:
  SeriesKind kind_;
  std::size_t capacity_;
  std::deque<SeriesPoint> points_;
  std::uint64_t evicted_ = 0;
};

/// Series address. Host "" is the local process.
struct SeriesKey {
  std::string host;
  std::string metric;

  auto operator<=>(const SeriesKey&) const = default;
};

struct SamplerOptions {
  sim::Duration period = sim::Duration::seconds(1.0);
  std::size_t capacity = 512;  ///< points retained per series
  /// GETBULK repetitions per round trip on remote telemetry walks.
  std::uint32_t bulk_repetitions = 16;
};

/// The sampler's counters, declared once (telemetry/counter_set.hpp).
#define COLLABQOS_SAMPLER_COUNTERS(X)                                          \
  X(ticks, "observatory.sampler.ticks")                                        \
  X(local_points, "observatory.sampler.local_points")                          \
  X(remote_walks, "observatory.sampler.remote_walks")                          \
  X(remote_points, "observatory.sampler.remote_points")                        \
  X(remote_failures, "observatory.sampler.remote_failures")

/// Point-in-time sampler counters (registry families "observatory.sampler.*").
struct SamplerStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_SAMPLER_COUNTERS)
};

class TimeSeriesSampler {
 public:
  /// Invoked after every completed sweep (local, and on arrival of each
  /// remote walk's points) — the AlertEngine's evaluation hook.
  using TickHook = std::function<void(sim::TimePoint)>;

  TimeSeriesSampler(sim::Simulator& simulator,
                    telemetry::MetricsRegistry& registry,
                    SamplerOptions options = {});

  /// Observe a remote agent: every period, GETBULK-walk its
  /// enterprises.26510.10 subtree and ingest the families it exports as
  /// series under `host`. `manager` and the agent must outlive the
  /// sampler.
  void add_remote(std::string host, snmp::Manager& manager,
                  net::NodeId agent, std::string community);

  void start();
  void stop();

  /// One sweep now: sample every registry family, kick off one walk per
  /// remote (their points land when the walk's response arrives), then
  /// run the tick hooks. start() does this on every period.
  void sample_now();

  /// Manual ingestion: append one observation to the (host, metric)
  /// series, creating it on first use. The remote walk path lands here;
  /// tests script series through it.
  void ingest(std::string_view host, std::string_view metric,
              SeriesKind kind, double value, sim::TimePoint time);

  [[nodiscard]] const TimeSeries* find(std::string_view host,
                                       std::string_view metric) const;
  [[nodiscard]] std::size_t series_count() const noexcept;

  /// Visit every series as (key, series); iteration order is host then
  /// metric. The engine's rule sweep.
  void visit(const std::function<void(const SeriesKey&, const TimeSeries&)>&
                 fn) const;

  void on_tick(TickHook hook) { hooks_.push_back(std::move(hook)); }

  [[nodiscard]] SamplerStats stats() const noexcept { return stats_.view(); }
  [[nodiscard]] const SamplerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] telemetry::MetricsRegistry& registry() noexcept {
    return registry_;
  }

 private:
  struct Remote {
    std::string host;
    snmp::Manager* manager = nullptr;
    net::NodeId agent{};
    std::string community;
    /// export id -> family name, learned from the walk's .1 directory
    /// arcs (ids are stable for the remote process's lifetime).
    std::map<std::uint32_t, std::string> directory;
  };

  void sample_local(sim::TimePoint now);
  void walk_remote(Remote& remote);
  void ingest_walk(Remote& remote,
                   const std::vector<snmp::VarBind>& bindings,
                   sim::TimePoint now);
  void run_hooks(sim::TimePoint now);
  TimeSeries& series_slot(std::string_view host, std::string_view metric,
                          SeriesKind kind);

  sim::Simulator& simulator_;
  telemetry::MetricsRegistry& registry_;
  SamplerOptions options_;
  sim::PeriodicTimer timer_;
  /// host -> metric -> series; both levels transparent-comparable so the
  /// per-tick sweep looks up without allocating.
  std::map<std::string, std::map<std::string, TimeSeries, std::less<>>,
           std::less<>>
      series_;
  std::deque<Remote> remotes_;  ///< stable addresses for walk callbacks
  std::vector<TickHook> hooks_;

  COLLABQOS_COUNTER_SET(Counters, SamplerStats, COLLABQOS_SAMPLER_COUNTERS);
  Counters stats_;
};

}  // namespace collabqos::observatory
