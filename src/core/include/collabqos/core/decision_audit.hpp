// Decision audit log (DESIGN.md §9): every inference decision recorded
// next to the exact inputs that produced it — the SNMP-read host load,
// the RTCP-derived loss/jitter, and the contract bounds in force. The
// paper's adaptation curves (Figures 6-10) plot *outputs*; the audit log
// is how a run explains them: "packets dropped to 4 at t=12.3s because
// cpu.load read 82 against a [0,16] contract".
//
// Like the tracer, the log is a bounded ring behind one relaxed atomic
// enable gate, drainable to JSONL.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "collabqos/core/inference.hpp"
#include "collabqos/pubsub/attribute.hpp"
#include "collabqos/sim/time.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::core {

/// One inference decision with its full context.
struct DecisionRecord {
  sim::TimePoint time{};
  std::string client;             ///< deciding component's name
  pubsub::AttributeSet inputs;    ///< state snapshot fed to the engine
  int contract_min_packets = 0;
  int contract_max_packets = 0;
  AdaptationDecision decision;
};

/// Bounded process-wide collector; disabled by default.
class DecisionAuditLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 16384;

  [[nodiscard]] static DecisionAuditLog& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// Ring bound; when full, the oldest record is dropped (and counted).
  void set_capacity(std::size_t capacity);

  void record(DecisionRecord record);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Move all records out (oldest first) and clear the ring.
  [[nodiscard]] std::vector<DecisionRecord> drain();
  void clear();

  /// One record as a JSONL line (no trailing newline).
  [[nodiscard]] static std::string to_jsonl(const DecisionRecord& record);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::deque<DecisionRecord> records_;
  std::size_t capacity_ = kDefaultCapacity;
};

}  // namespace collabqos::core
