// Telemetry-plane microbench: the cost of being observable.
//
// The registry's design claim (DESIGN.md §9) is that instrumented code
// pays one relaxed fetch_add per event — no lock, no name lookup — so
// counters can sit on the per-message hot path. This bench measures that
// claim directly and records it in BENCH_telemetry.json; the acceptance
// bar is <= 10 ns per counter increment.
//
// Workloads:
//   1. counter_increment          — detached telemetry::Counter
//   2. counter_increment_attached — same counter attached to a family
//      (attachment must not change the write path)
//   3. registry_owned_increment   — registry-owned counter through a
//      cached reference (the InferenceEngine pattern)
//   4. gauge_set                  — one relaxed store of double bits
//   5. tracer_disabled_check      — the branch every span site pays when
//      tracing is off
//   6. registry_read              — family read by dotted name (cold path)
//   7. registry_snapshot          — full snapshot, amortised per family
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "collabqos/telemetry/metrics.hpp"
#include "collabqos/telemetry/trace.hpp"

using namespace collabqos;

namespace {

struct Measurement {
  std::string name;
  std::size_t iterations = 0;
  double ns_per_op = 0.0;
};

std::uint64_t g_sink = 0;  // defeats dead-code elimination

Measurement time_workload(std::string name,
                          const std::function<std::uint64_t()>& op) {
  using clock = std::chrono::steady_clock;
  // Warm up, then scale the iteration count to ~0.2 s of runtime.
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
              m.name.c_str(), m.iterations, m.ns_per_op,
              1e9 / m.ns_per_op);
  return m;
}

}  // namespace

int main() {
  std::printf("Telemetry-plane microbench (registry + tracer hot paths)\n");
  for (int i = 0; i < 78; ++i) std::putchar('-');
  std::putchar('\n');

  auto& registry = telemetry::MetricsRegistry::global();
  telemetry::Counter detached;
  telemetry::Counter attached;
  auto registration = registry.attach("bench.attached_counter", attached);
  telemetry::Counter& owned = registry.counter("bench.owned_counter");
  telemetry::Gauge gauge;
  auto gauge_registration = registry.attach("bench.gauge", gauge);
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.set_enabled(false);

  std::vector<Measurement> results;
  results.push_back(time_workload("counter_increment", [&] {
    ++detached;
    return detached.value() & 1;
  }));
  results.push_back(time_workload("counter_increment_attached", [&] {
    ++attached;
    return attached.value() & 1;
  }));
  results.push_back(time_workload("registry_owned_increment", [&] {
    ++owned;
    return owned.value() & 1;
  }));
  results.push_back(time_workload("gauge_set", [&] {
    gauge.set(42.0);
    return static_cast<std::uint64_t>(gauge.value());
  }));
  results.push_back(time_workload("tracer_disabled_check", [&] {
    return static_cast<std::uint64_t>(tracer.enabled());
  }));
  results.push_back(time_workload("registry_read", [&] {
    return static_cast<std::uint64_t>(
        registry.read("bench.attached_counter"));
  }));
  const double families = static_cast<double>(registry.family_count());
  Measurement snapshot = time_workload("registry_snapshot", [&] {
    return static_cast<std::uint64_t>(registry.snapshot().size());
  });
  snapshot.name = "registry_snapshot_per_family";
  snapshot.ns_per_op = families > 0 ? snapshot.ns_per_op / families
                                    : snapshot.ns_per_op;
  results.push_back(snapshot);

  const double increment_ns = results[0].ns_per_op;
  const bool within_budget = increment_ns <= 10.0;
  std::printf("\ncounter increment: %.2f ns/op (budget 10 ns) -> %s\n",
              increment_ns, within_budget ? "OK" : "OVER BUDGET");
  std::printf("(sink: %llu)\n", static_cast<unsigned long long>(g_sink));

  std::FILE* out = std::fopen("BENCH_telemetry.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_telemetry.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_telemetry\",\n");
  std::fprintf(out,
               "  \"workload\": \"registry instruments and tracer gate, "
               "single thread\",\n");
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
  std::fprintf(out, "  \"counter_increment_ns\": %.2f,\n", increment_ns);
  std::fprintf(out, "  \"counter_increment_budget_ns\": 10.0,\n");
  std::fprintf(out, "  \"within_budget\": %s\n}\n",
               within_budget ? "true" : "false");
  std::fclose(out);
  return within_budget ? 0 : 1;
}
