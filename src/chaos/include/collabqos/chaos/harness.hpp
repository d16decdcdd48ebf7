// Chaos plane, part 3 (DESIGN.md §12): the resilience verification
// harness.
//
// ResilienceHarness builds a self-contained collaboration scenario — a
// wired publisher, wired subscribers, a base station with thin clients,
// a session archiver and a QoS-observatory watchdog — then runs it with
// a ChaosSchedule armed and checks the recovery invariants the rest of
// the framework promises:
//
//  * integrity  — no corrupted payload is ever delivered to a
//    subscriber's handler (the RTP checksum must catch every chaos
//    bit-flip before `match` sees it);
//  * detection  — SLO alerts fire while faults are active;
//  * recovery   — every alert clears within a bound after the last
//    fault heals, and every subscriber makes delivery progress after
//    the heal;
//  * accounting — repair-traffic amplification (NACK retransmissions
//    per original fragment) is measured and reported.
//
// The report also carries an order-insensitive fingerprint of the
// delivered-object set, so two same-seed runs can be compared
// bit-for-bit (determinism is itself an invariant: a chaos run you
// cannot replay is a chaos run you cannot debug).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "collabqos/chaos/schedule.hpp"

namespace collabqos::chaos {

struct HarnessOptions {
  int wired = 3;      ///< w0 publishes; w1.. subscribe
  int wireless = 2;   ///< t1.. behind base station "bs"
  /// Minimum drive window; extended automatically so that a 10 s
  /// observation window follows the schedule's last heal.
  double duration_s = 30.0;
  std::uint64_t seed = 1;
};

/// Everything a chaos run produced, plus the invariant verdicts.
struct ResilienceReport {
  std::vector<std::string> violations;  ///< empty = all invariants held
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }

  // Traffic.
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;           ///< unique objects, wired subs
  std::uint64_t integrity_failures = 0;  ///< digest-mismatched deliveries
  std::uint64_t wireless_delivered = 0;  ///< BS downlink unicasts
  // Chaos accounting.
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_cleared = 0;
  std::uint64_t fault_drops = 0;     ///< partition verdicts
  std::uint64_t link_drops = 0;      ///< burst / i.i.d. link loss
  std::uint64_t duplicates = 0;
  std::uint64_t corruptions = 0;     ///< bit-flips injected
  std::uint64_t corrupt_detected = 0;   ///< RTP checksum rejections
  std::uint64_t reassembly_evicted = 0; ///< byte-budget evictions
  std::uint64_t outage_dropped = 0;     ///< BS data-plane drops
  /// Schedule names that matched no node or target (skipped, not fatal).
  std::uint64_t unresolved_names = 0;
  // Repair.
  std::uint64_t nacks_sent = 0;
  std::uint64_t retransmissions = 0;
  /// Repair fragments retransmitted per original data fragment sent.
  double repair_amplification = 0.0;
  std::uint64_t resyncs = 0;        ///< archive replays after crashes
  std::uint64_t resync_events = 0;  ///< messages replayed in total
  // Alerts.
  std::uint64_t alerts_raised = 0;
  std::uint64_t alerts_cleared = 0;
  double last_clear_s = 0.0;  ///< sim time of the final return to ok
  std::size_t alerts_active_at_end = 0;
  // Determinism.
  std::uint64_t fingerprint = 0;  ///< delivered-set digest (order-free)
  double sim_seconds = 0.0;

  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] std::string to_json() const;
};

class ResilienceHarness {
 public:
  explicit ResilienceHarness(HarnessOptions options = {})
      : options_(options) {}

  /// Build the scenario, arm `schedule`, drive it to completion and
  /// verify the invariants. Each call is a fresh, independent world.
  [[nodiscard]] ResilienceReport run(const ChaosSchedule& schedule);

  /// Burst loss + reorder/duplication storm + corruption + partition +
  /// base-station outage + client crash, phased over ~25s, with names
  /// matching the default harness topology. The `--chaos canned`
  /// schedule and the CI smoke input.
  [[nodiscard]] static std::string_view canned_schedule() noexcept;

 private:
  HarnessOptions options_;
};

}  // namespace collabqos::chaos
