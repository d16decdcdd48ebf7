// Shared scaffolding for the figure-regeneration benches: a complete
// simulated test-bed (the paper's "several Windows NT workstations on the
// local network") whose wired stations are core::Workstations.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "collabqos/app/image_viewer.hpp"
#include "collabqos/core/basestation_peer.hpp"
#include "collabqos/core/thin_client.hpp"
#include "collabqos/core/workstation.hpp"
#include "collabqos/observatory/trace_analysis.hpp"
#include "collabqos/telemetry/metrics.hpp"
#include "collabqos/telemetry/trace.hpp"

namespace collabqos::bench {

/// Shared bench flags.
///
///   --observe  turn on the span tracer for the whole run; on exit the
///              observatory's TraceAnalyzer prints the per-stage latency
///              breakdown and writes Chrome trace-event JSON to
///              TRACE_<bench>.json (open in Perfetto / chrome://tracing).
///   --smoke    cheap CI mode: benches shrink their sweeps (see smoke()).
class ObserveMode {
 public:
  ObserveMode(int argc, char** argv, std::string bench)
      : bench_(std::move(bench)) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--observe") observe_ = true;
      if (arg == "--smoke") smoke_ = true;
    }
    if (observe_) {
      telemetry::Tracer::global().set_capacity(1 << 18);
      telemetry::Tracer::global().set_enabled(true);
    }
  }
  ObserveMode(const ObserveMode&) = delete;
  ObserveMode& operator=(const ObserveMode&) = delete;

  ~ObserveMode() {
    if (!observe_) return;
    observatory::TraceAnalyzer analyzer;
    analyzer.consume(telemetry::Tracer::global());
    std::printf("\n%s", analyzer.report().to_text().c_str());
    const std::string path = "TRACE_" + bench_ + ".json";
    if (analyzer.dump_chrome_trace(path).ok()) {
      std::printf("chrome trace written to %s\n", path.c_str());
    }
  }

  [[nodiscard]] bool observe() const noexcept { return observe_; }
  [[nodiscard]] bool smoke() const noexcept { return smoke_; }
  /// Sweep step multiplier: smoke runs take coarser steps.
  [[nodiscard]] int stride(int full, int smoke_stride) const noexcept {
    return smoke_ ? smoke_stride : full;
  }

 private:
  std::string bench_;
  bool observe_ = false;
  bool smoke_ = false;
};

class Testbed {
 public:
  Testbed() {
    pubsub::AttributeSet objective;
    objective.set("domain", "evaluation");
    session_ = directory_.create("eval-session", objective, {}).take();
  }

  void run_for(double seconds) {
    sim_.run_until(sim_.now() + sim::Duration::seconds(seconds));
  }

  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] const core::SessionInfo& session() const noexcept {
    return session_;
  }

 private:
  sim::Simulator sim_;
  net::Network network_{sim_, 20020422};  // IPPS 2002 vintage seed
  core::SessionDirectory directory_;
  core::SessionInfo session_;
};

inline void print_rule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

/// Dump every non-zero telemetry family — the run's built-in audit trail.
/// Figure benches call this after their series so a reader can see how
/// much traffic, matching and adaptation work backed the numbers.
inline void print_metrics_snapshot() {
  const auto samples = telemetry::MetricsRegistry::global().snapshot();
  std::printf("\ntelemetry snapshot (%zu families)\n", samples.size());
  print_rule();
  for (const auto& sample : samples) {
    if (sample.value == 0.0) continue;
    std::printf("%-44s %.0f\n", sample.name.c_str(), sample.value);
  }
}

/// Print just the pipeline.bytes_copied.* family: where payload bytes
/// were materialised during the run (DESIGN.md §11). Zero-valued sites
/// are printed too — "this site copied nothing" is the claim the
/// zero-copy pipeline makes, so its absence should be visible.
inline void print_pipeline_copies() {
  const auto samples = telemetry::MetricsRegistry::global().snapshot();
  std::printf("\npipeline copy accounting (bytes materialised)\n");
  print_rule();
  for (const auto& sample : samples) {
    if (sample.name.rfind("pipeline.bytes_copied.", 0) != 0) continue;
    std::printf("%-44s %.0f\n", sample.name.c_str(), sample.value);
  }
}

}  // namespace collabqos::bench
