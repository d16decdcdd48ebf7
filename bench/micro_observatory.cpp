// Observatory-plane microbench: the cost of being watched.
//
// The observatory's design claim (DESIGN.md §10) is that a periodic
// sweep over the metrics registry plus SLO rule evaluation is cheap
// enough to run inside the simulation at a 1 Hz period without
// perturbing it. The acceptance bar is <= 5 us per tick for a
// steady-state sample_now() + AlertEngine evaluation over 32 families.
// Results land in BENCH_observatory.json.
//
// Workloads:
//   1. sampler_tick            — registry sweep alone (32 families)
//   2. sampler_tick_with_rules — sweep + 4-rule alert evaluation (the
//      budgeted configuration)
//   3. series_append           — one ring append with rate derivation
//   4. alert_evaluate          — rule evaluation alone
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "collabqos/observatory/alerts.hpp"
#include "collabqos/observatory/series.hpp"
#include "collabqos/sim/simulator.hpp"
#include "collabqos/telemetry/metrics.hpp"

using namespace collabqos;

namespace {

struct Measurement {
  std::string name;
  std::size_t iterations = 0;
  double ns_per_op = 0.0;
};

std::uint64_t g_sink = 0;

Measurement time_workload(std::string name,
                          const std::function<std::uint64_t()>& op) {
  using clock = std::chrono::steady_clock;
  std::size_t iterations = 1000;
  for (std::size_t i = 0; i < iterations; ++i) g_sink += op();
  const auto probe_start = clock::now();
  for (std::size_t i = 0; i < iterations; ++i) g_sink += op();
  const double probe_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           probe_start)
          .count());
  const double target_ns = 200e6;
  iterations = static_cast<std::size_t>(
      iterations * (probe_ns > 0 ? target_ns / probe_ns : 1.0)) + 1;
  const auto start = clock::now();
  for (std::size_t i = 0; i < iterations; ++i) g_sink += op();
  const double elapsed_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           start)
          .count());
  Measurement m;
  m.name = std::move(name);
  m.iterations = iterations;
  m.ns_per_op = elapsed_ns / static_cast<double>(iterations);
  std::printf("%-28s %12zu iters %12.1f ns/op %14.0f ops/s\n",
              m.name.c_str(), m.iterations, m.ns_per_op, 1e9 / m.ns_per_op);
  return m;
}

/// A 32-family workload registry: 24 counters and 8 gauges. Clients
/// export only counters and gauges, and counters are most of them.
struct Families {
  telemetry::MetricsRegistry registry;
  std::vector<std::unique_ptr<telemetry::Counter>> counters;
  std::vector<std::unique_ptr<telemetry::Gauge>> gauges;
  std::vector<telemetry::Registration> registrations;

  Families() {
    for (int i = 0; i < 24; ++i) {
      auto c = std::make_unique<telemetry::Counter>();
      registrations.push_back(
          registry.attach("bench.counter." + std::to_string(i), *c));
      counters.push_back(std::move(c));
    }
    for (int i = 0; i < 8; ++i) {
      auto g = std::make_unique<telemetry::Gauge>();
      registrations.push_back(
          registry.attach("bench.gauge." + std::to_string(i), *g));
      gauges.push_back(std::move(g));
    }
  }

  void churn(std::uint64_t seed) {
    for (auto& c : counters) c->add(1 + (seed & 7));
    for (auto& g : gauges) g->set(static_cast<double>(seed & 127));
  }
};

}  // namespace

int main() {
  std::printf(
      "Observatory-plane microbench (sampler sweep + alert evaluation)\n");
  for (int i = 0; i < 78; ++i) std::putchar('-');
  std::putchar('\n');

  Families families;
  sim::Simulator sim;
  observatory::SamplerOptions options;
  options.capacity = 256;
  observatory::TimeSeriesSampler sampler(sim, families.registry, options);
  const sim::Duration tick = sim::Duration::seconds(1.0);

  // The sim clock must advance between ticks or every sweep hits the
  // same-instant resample path; one empty event per tick moves it.
  std::uint64_t seq = 0;
  const auto advance = [&] {
    sim.schedule_at(sim.now() + tick, [] {});
    (void)sim.step();
  };

  std::vector<Measurement> results;
  results.push_back(time_workload("sampler_tick", [&] {
    families.churn(++seq);
    advance();
    sampler.sample_now();
    return sampler.series_count();
  }));

  observatory::AlertEngine engine(sampler);
  {
    observatory::SloRule rule;
    rule.name = "counter0-rate";
    rule.metric = "bench.counter.0";
    rule.signal = observatory::Signal::rate;
    rule.warning = 1e7;
    rule.critical = 1e8;
    engine.add_rule(rule);
    rule.name = "gauge0-level";
    rule.metric = "bench.gauge.0";
    rule.signal = observatory::Signal::level;
    rule.warning = 1e3;
    rule.critical = 1e4;
    engine.add_rule(rule);
    rule.name = "counter16-rate";
    rule.metric = "bench.counter.16";
    rule.signal = observatory::Signal::rate;
    rule.warning = 1e7;
    rule.critical = 1e8;
    engine.add_rule(rule);
    rule.name = "counter1-silent";
    rule.metric = "bench.counter.1";
    rule.host = "local-process";  // never sampled: stays pending
    rule.kind = observatory::RuleKind::absence;
    rule.warning = 1e9;
    rule.critical = 2e9;
    engine.add_rule(rule);
  }

  // The engine hooks sampler ticks, so sample_now() now includes the
  // 4-rule evaluation — the configuration the budget is quoted for.
  results.push_back(time_workload("sampler_tick_with_rules", [&] {
    families.churn(++seq);
    advance();
    sampler.sample_now();
    return sampler.series_count();
  }));

  observatory::TimeSeries series(observatory::SeriesKind::counter, 256);
  double total = 0.0;
  results.push_back(time_workload("series_append", [&] {
    total += 17.0;
    observatory::SeriesPoint point;
    point.time = sim::TimePoint::from_micros(static_cast<std::int64_t>(total));
    point.value = total;
    series.append(point);
    return series.size();
  }));

  results.push_back(time_workload("alert_evaluate", [&] {
    engine.evaluate(sim.now());
    return engine.active();
  }));

  const double tick_ns = results[1].ns_per_op;
  const double budget_ns = 5000.0;
  const bool within_budget = tick_ns <= budget_ns;
  std::printf(
      "\nsample+evaluate tick: %.0f ns (budget %.0f ns, 32 families) -> %s\n",
      tick_ns, budget_ns, within_budget ? "OK" : "OVER BUDGET");
  std::printf("(sink: %llu, series: %zu)\n",
              static_cast<unsigned long long>(g_sink),
              sampler.series_count());

  std::FILE* out = std::fopen("BENCH_observatory.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_observatory.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_observatory\",\n");
  std::fprintf(out,
               "  \"workload\": \"32-family registry sweep with 4 SLO "
               "rules, single thread\",\n");
  std::fprintf(out, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"iterations\": %zu, "
                 "\"ns_per_op\": %.2f, \"ops_per_sec\": %.0f}%s\n",
                 results[i].name.c_str(), results[i].iterations,
                 results[i].ns_per_op, 1e9 / results[i].ns_per_op,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"tick_ns\": %.2f,\n", tick_ns);
  std::fprintf(out, "  \"tick_budget_ns\": %.1f,\n", budget_ns);
  std::fprintf(out, "  \"within_budget\": %s\n}\n",
               within_budget ? "true" : "false");
  std::fclose(out);
  return within_budget ? 0 : 1;
}
