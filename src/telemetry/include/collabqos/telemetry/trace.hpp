// Per-message trace spans (DESIGN.md §9). A published semantic message is
// identified on the wire by (ssrc, transport timestamp) — the RTP header
// the fragments already carry — so every layer it crosses can stamp spans
// against the same trace id with no wire-format change:
//
//   pubsub.publish -> rtp.fragment -> net.transit -> rtp.reassemble
//     -> pubsub.match (cache hit/miss, VM time, accept/transform/reject)
//
// Spans carry sim-clock times (deterministic across runs) plus free-form
// string tags, collect into a bounded ring, and drain to the trace
// analyzer (observatory/trace_analysis.hpp). Recording is gated on one
// relaxed atomic load, so a disabled tracer costs the hot path a
// predictable branch and nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "collabqos/sim/time.hpp"
#include "collabqos/telemetry/metrics.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::telemetry {

/// `text` with JSON string escaping applied (quotes, backslashes and
/// control characters; the escaping the trace report uses).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Trace identity of one semantic message: the sender's 32-bit stream id
/// (ssrc == peer id) and its 32-bit transport timestamp (== sequence).
[[nodiscard]] constexpr std::uint64_t make_trace_id(
    std::uint32_t ssrc, std::uint32_t timestamp) noexcept {
  return (static_cast<std::uint64_t>(ssrc) << 32) | timestamp;
}

struct Span {
  std::uint64_t trace_id = 0;
  std::string name;          ///< dotted stage name ("pubsub.match", ...)
  std::uint64_t actor = 0;   ///< peer/node id that produced the span
  sim::TimePoint start{};
  sim::TimePoint end{};
  std::vector<std::pair<std::string, std::string>> tags;

  [[nodiscard]] const std::string* tag(std::string_view key) const noexcept;
};

/// Bounded span collector. Single global instance (the simulator runs the
/// whole "LAN" in one process); disabled by default.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  /// Overflow drops are counted per instance and summed into the
  /// registry family "tracer.spans_dropped", so a truncated trace is
  /// visible to the observatory (and never read as complete).
  Tracer();

  [[nodiscard]] static Tracer& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// Ring bound; when full, the oldest span is dropped (and counted).
  void set_capacity(std::size_t capacity);

  void record(Span span);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.value();
  }

  /// Move all collected spans out (oldest first) and clear the ring.
  [[nodiscard]] std::vector<Span> drain();
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  Counter dropped_;
  Registration dropped_registration_;
  mutable std::mutex mutex_;
  std::deque<Span> spans_;
  std::size_t capacity_ = kDefaultCapacity;
};

}  // namespace collabqos::telemetry
