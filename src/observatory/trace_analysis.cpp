#include "collabqos/observatory/trace_analysis.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "collabqos/util/stats.hpp"

namespace collabqos::observatory {

namespace {

constexpr std::string_view kStageOrder[] = {
    "pubsub.publish", "rtp.fragment", "net.transit",
    "rtp.reassemble", "pubsub.match",
};

}  // namespace

void TraceAnalyzer::add(std::vector<telemetry::Span> spans) {
  if (spans_.empty()) {
    spans_ = std::move(spans);
    return;
  }
  spans_.reserve(spans_.size() + spans.size());
  for (telemetry::Span& span : spans) spans_.push_back(std::move(span));
}

void TraceAnalyzer::consume(telemetry::Tracer& tracer) {
  dropped_ += tracer.dropped();
  add(tracer.drain());
}

TraceReport TraceAnalyzer::report() const {
  TraceReport report;
  report.spans = spans_.size();
  report.spans_dropped = dropped_;

  // Group spans by trace, keeping per-stage references.
  struct Trace {
    const telemetry::Span* publish = nullptr;
    const telemetry::Span* fragment = nullptr;
    /// Receiver-side spans keyed by actor.
    std::map<std::uint64_t, std::vector<const telemetry::Span*>> transit;
    std::map<std::uint64_t, const telemetry::Span*> reassemble;
    std::map<std::uint64_t, const telemetry::Span*> match;
  };
  std::map<std::uint64_t, Trace> traces;
  SampleSet match_wall_ns;
  for (const telemetry::Span& span : spans_) {
    Trace& trace = traces[span.trace_id];
    if (span.name == "pubsub.publish") {
      trace.publish = &span;
    } else if (span.name == "rtp.fragment") {
      trace.fragment = &span;
    } else if (span.name == "net.transit") {
      trace.transit[span.actor].push_back(&span);
    } else if (span.name == "rtp.reassemble") {
      trace.reassemble[span.actor] = &span;
    } else if (span.name == "pubsub.match") {
      trace.match[span.actor] = &span;
      if (const std::string* cache = span.tag("cache")) {
        if (*cache == "hit") {
          ++report.cache_hits;
        } else {
          ++report.cache_misses;
        }
      }
      if (const std::string* verdict = span.tag("verdict")) {
        ++report.verdicts[*verdict];
      }
      if (const std::string* ns = span.tag("match_ns")) {
        match_wall_ns.add(std::strtod(ns->c_str(), nullptr));
      }
    }
  }
  report.traces = traces.size();

  // Per-delivery stage contributions, all in sim microseconds. A
  // delivery is one (trace, receiver) pair that reached pubsub.match.
  SampleSet publish_us, fragment_us, transit_us, reassemble_us, match_us,
      other_us, e2e_us;
  for (const auto& [trace_id, trace] : traces) {
    for (const auto& [actor, match_span] : trace.match) {
      if (trace.publish == nullptr) continue;
      report.deliveries += 1;
      const double start =
          static_cast<double>(trace.publish->start.as_micros());
      const double end = static_cast<double>(match_span->end.as_micros());
      const double e2e = end - start;
      e2e_us.add(e2e);

      // publish: entry to fragmentation; fragment: the packetizer span.
      double sender_us = 0.0;
      if (trace.fragment != nullptr) {
        sender_us = static_cast<double>(
            (trace.fragment->end - trace.publish->start).as_micros());
      }
      publish_us.add(0.0);
      fragment_us.add(sender_us);

      // transit: window from the first datagram leaving to the last of
      // this receiver's datagrams arriving.
      double transit = 0.0;
      if (const auto it = trace.transit.find(actor);
          it != trace.transit.end() && !it->second.empty()) {
        auto lo = it->second.front()->start;
        auto hi = it->second.front()->end;
        for (const telemetry::Span* s : it->second) {
          lo = std::min(lo, s->start);
          hi = std::max(hi, s->end);
        }
        transit = static_cast<double>((hi - lo).as_micros());
      }
      transit_us.add(transit);

      double reassemble = 0.0;
      if (const auto it = trace.reassemble.find(actor);
          it != trace.reassemble.end()) {
        reassemble = static_cast<double>(
            (it->second->end - it->second->start).as_micros());
      }
      reassemble_us.add(reassemble);

      const double match_sim = static_cast<double>(
          (match_span->end - match_span->start).as_micros());
      match_us.add(match_sim);

      other_us.add(std::max(
          0.0, e2e - sender_us - transit - reassemble - match_sim));
    }
  }

  const auto breakdown = [](std::string stage, const SampleSet& samples) {
    StageBreakdown b;
    b.stage = std::move(stage);
    b.samples = samples.count();
    b.p50_us = samples.quantile(0.5);
    b.p95_us = samples.quantile(0.95);
    b.p99_us = samples.quantile(0.99);
    b.max_us = samples.quantile(1.0);
    b.mean_us = samples.mean();
    return b;
  };
  report.stages.push_back(breakdown("pubsub.publish", publish_us));
  report.stages.push_back(breakdown("rtp.fragment", fragment_us));
  report.stages.push_back(breakdown("net.transit", transit_us));
  report.stages.push_back(breakdown("rtp.reassemble", reassemble_us));
  report.stages.push_back(breakdown("pubsub.match", match_us));
  report.stages.push_back(breakdown("other", other_us));
  const auto dominant = std::max_element(
      report.stages.begin(), report.stages.end(),
      [](const StageBreakdown& a, const StageBreakdown& b) {
        return a.mean_us < b.mean_us;
      });
  if (dominant != report.stages.end() && report.deliveries > 0) {
    report.dominant_stage = dominant->stage;
  }
  report.e2e_p50_us = e2e_us.quantile(0.5);
  report.e2e_p95_us = e2e_us.quantile(0.95);
  report.e2e_p99_us = e2e_us.quantile(0.99);
  report.match_p50_ns = match_wall_ns.quantile(0.5);
  report.match_p99_ns = match_wall_ns.quantile(0.99);
  return report;
}

std::string TraceReport::to_text() const {
  std::string out;
  out.reserve(1024);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "trace analysis: %" PRIu64 " spans, %" PRIu64 " traces, %"
                PRIu64 " deliveries",
                spans, traces, deliveries);
  out += buf;
  if (spans_dropped > 0) {
    std::snprintf(buf, sizeof(buf),
                  " [TRUNCATED: %" PRIu64 " spans dropped by ring overflow]",
                  spans_dropped);
    out += buf;
  }
  out += '\n';
  std::snprintf(buf, sizeof(buf), "%-16s %8s %10s %10s %10s %10s\n", "stage",
                "n", "p50(us)", "p95(us)", "p99(us)", "mean(us)");
  out += buf;
  for (const StageBreakdown& stage : stages) {
    std::snprintf(buf, sizeof(buf), "%-16s %8zu %10.1f %10.1f %10.1f %10.1f\n",
                  stage.stage.c_str(), stage.samples, stage.p50_us,
                  stage.p95_us, stage.p99_us, stage.mean_us);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "end-to-end: p50 %.1f us, p95 %.1f us, p99 %.1f us; "
                "dominant stage: %s\n",
                e2e_p50_us, e2e_p95_us, e2e_p99_us,
                dominant_stage.empty() ? "-" : dominant_stage.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "selector cache: %" PRIu64 " hits / %" PRIu64
                " misses; match VM p50 %.0f ns, p99 %.0f ns\n",
                cache_hits, cache_misses, match_p50_ns, match_p99_ns);
  out += buf;
  out += "verdicts:";
  if (verdicts.empty()) out += " (none)";
  for (const auto& [verdict, count] : verdicts) {
    std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, verdict.c_str(), count);
    out += buf;
  }
  out += '\n';
  return out;
}

std::string TraceAnalyzer::to_chrome_trace() const {
  std::string out;
  out.reserve(128 + spans_.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[128];
  bool first = true;
  std::map<std::uint64_t, bool> actors;
  for (const telemetry::Span& span : spans_) {
    actors.emplace(span.actor, true);
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += telemetry::json_escape(span.name);
    out += "\",\"cat\":\"collabqos\",\"ph\":\"X\",";
    std::snprintf(buf, sizeof(buf),
                  "\"ts\":%lld,\"dur\":%lld,\"pid\":%llu,\"tid\":%llu,",
                  static_cast<long long>(span.start.as_micros()),
                  static_cast<long long>(
                      (span.end - span.start).as_micros()),
                  static_cast<unsigned long long>(span.actor),
                  static_cast<unsigned long long>(span.actor));
    out += buf;
    out += "\"args\":{\"trace\":\"";
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(span.trace_id));
    out += buf;
    out += '"';
    for (const auto& [key, value] : span.tags) {
      out += ",\"";
      out += telemetry::json_escape(key);
      out += "\":\"";
      out += telemetry::json_escape(value);
      out += '"';
    }
    out += "}}";
  }
  // Name each actor's track so Perfetto shows peers, not bare pids.
  for (const auto& [actor, unused] : actors) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%llu,"
                  "\"args\":{\"name\":\"peer-%llu\"}}",
                  static_cast<unsigned long long>(actor),
                  static_cast<unsigned long long>(actor));
    out += buf;
  }
  out += "]}";
  return out;
}

Status TraceAnalyzer::dump_chrome_trace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status(Errc::resource_limit, "cannot open " + path);
  }
  const std::string json = to_chrome_trace();
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  return {};
}

}  // namespace collabqos::observatory
