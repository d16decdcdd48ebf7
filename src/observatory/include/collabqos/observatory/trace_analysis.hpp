// QoS Observatory, layer 3 (DESIGN.md §10): trace-derived latency
// analysis.
//
// The tracer (telemetry/trace.hpp) records where a message *was*; this
// module says where its latency *went*. Spans group by trace id into
// per-message timelines; each delivery (one trace reaching one
// receiver's pubsub.match) decomposes into stage contributions —
// transit (first-datagram flight), reassembly (first fragment ->
// complete), and the queueing/processing residual — with per-stage
// p50/p95/p99, the dominant stage, the selector-cache hit split and
// match verdicts. Exports: a text report and Chrome trace-event JSON
// that loads directly in Perfetto / chrome://tracing.
//
// Dropped spans are carried through to every report: a ring that
// overflowed is reported as truncated, never read as complete.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "collabqos/telemetry/trace.hpp"

namespace collabqos::observatory {

/// Distribution of one stage's latency contribution across deliveries.
struct StageBreakdown {
  std::string stage;
  std::size_t samples = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double mean_us = 0.0;
};

struct TraceReport {
  std::uint64_t spans = 0;
  std::uint64_t spans_dropped = 0;
  std::uint64_t traces = 0;
  /// (trace, receiver) pairs that completed a pubsub.match.
  std::uint64_t deliveries = 0;

  /// Per-stage contribution quantiles in sim microseconds, wire order:
  /// publish -> fragment -> transit -> reassemble -> match, then
  /// "other" (the unattributed residual of the end-to-end latency).
  std::vector<StageBreakdown> stages;
  /// Stage with the largest mean contribution (among deliveries).
  std::string dominant_stage;

  /// End-to-end publish -> match latency across deliveries (sim us).
  double e2e_p50_us = 0.0;
  double e2e_p95_us = 0.0;
  double e2e_p99_us = 0.0;

  /// pubsub.match tag digests.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::map<std::string, std::uint64_t> verdicts;
  /// Wall-clock selector-VM time (match_ns tags), when present.
  double match_p50_ns = 0.0;
  double match_p99_ns = 0.0;

  /// True when no span was dropped — the analysis saw the whole run.
  [[nodiscard]] bool complete() const noexcept { return spans_dropped == 0; }

  [[nodiscard]] std::string to_text() const;
};

class TraceAnalyzer {
 public:
  void add(std::vector<telemetry::Span> spans);
  /// Drain `tracer` into the analyzer, carrying its drop counter along.
  void consume(telemetry::Tracer& tracer);

  [[nodiscard]] std::size_t span_count() const noexcept {
    return spans_.size();
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  [[nodiscard]] TraceReport report() const;

  /// Chrome trace-event JSON ({"traceEvents": [...], ...}): one complete
  /// ("X") event per span on a per-actor process track, plus process
  /// metadata. Loads in Perfetto and chrome://tracing.
  [[nodiscard]] std::string to_chrome_trace() const;
  /// Write to_chrome_trace() to `path`.
  Status dump_chrome_trace(const std::string& path) const;

 private:
  std::vector<telemetry::Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace collabqos::observatory
