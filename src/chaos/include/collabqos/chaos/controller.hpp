// Chaos plane, part 2 (DESIGN.md §12): the schedule executor.
//
// A ChaosController owns the network's fault hook and turns a
// ChaosSchedule into timed simulator events. Link faults (burst/loss)
// are injected by swapping the victim's LinkParams and restoring the
// snapshot at clear time — the link RNG stream and burst-chain state
// carry over (link.hpp), so the surrounding run stays deterministic.
// Datagram faults (partition/reorder/duplicate/corrupt) are decided in
// the fault hook from a per-event RNG stream. Target faults
// (outage/crash) dispatch to handlers registered by name, which lets the
// harness wire "take the base station dark" or "crash client w2 and
// resync it from the archive" without the controller knowing either
// component.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "collabqos/chaos/schedule.hpp"
#include "collabqos/net/network.hpp"
#include "collabqos/telemetry/counter_set.hpp"

namespace collabqos::chaos {

/// The controller's counters, declared once (telemetry/counter_set.hpp).
#define COLLABQOS_CHAOS_COUNTERS(X)                                            \
  X(faults_injected, "chaos.faults_injected")                                  \
  X(faults_cleared, "chaos.faults_cleared")                                    \
  X(datagrams_dropped, "chaos.datagrams_dropped") /* partition verdicts */     \
  X(datagrams_delayed, "chaos.datagrams_delayed") /* reorder verdicts */       \
  X(datagrams_duplicated, "chaos.datagrams_duplicated") /* duplicate */        \
  X(datagrams_corrupted, "chaos.datagrams_corrupted") /* corrupt verdicts */   \
  X(unresolved_names, "chaos.unresolved_names") /* names with no node */

/// Point-in-time controller counters (registry families "chaos.*").
struct ChaosStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_CHAOS_COUNTERS)
};

class ChaosController {
 public:
  /// Invoked when an outage/crash event targeting the registered name
  /// injects (`active` = true) and clears (`active` = false).
  using TargetHandler = std::function<void(const ChaosEvent&, bool active)>;

  /// Installs itself as the network's fault hook. `seed` isolates the
  /// controller's stochastic choices from the network's own streams;
  /// each armed event then derives an independent stream from
  /// (seed, event index, event.seed).
  explicit ChaosController(net::Network& network,
                           std::uint64_t seed = 0xC4405u);
  ~ChaosController();
  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  /// Register (or replace) the handler behind a schedule target name.
  void register_target(std::string name, TargetHandler handler);

  /// Schedule every event's inject (and, for timed events, clear)
  /// against the simulator, relative to now. May be called more than
  /// once; event indices keep counting so RNG streams never collide.
  void arm(const ChaosSchedule& schedule);

  /// Faults currently influencing traffic (armed-but-future and cleared
  /// ones excluded).
  [[nodiscard]] std::size_t active_faults() const noexcept {
    return active_.size();
  }
  [[nodiscard]] ChaosStats stats() const noexcept { return stats_.view(); }

 private:
  /// One fault inside its active window.
  struct Active {
    ChaosEvent event;
    Rng rng;
    bool all_nodes = false;          ///< hook kinds with no nodes= list
    std::set<net::NodeId> nodes;
    std::set<net::NodeId> peers;     ///< partition far side (may be empty)
    /// Link-kind snapshots to restore at clear time.
    std::vector<std::pair<net::NodeId, net::LinkParams>> saved_links;

    Active(ChaosEvent e, Rng r) : event(std::move(e)), rng(r) {}
  };

  void inject(const ChaosEvent& event, std::uint64_t index);
  void clear(std::uint64_t id);
  void dispatch_target(const ChaosEvent& event, bool active);
  [[nodiscard]] net::FaultDecision on_datagram(net::Address source,
                                               net::Address destination,
                                               std::size_t payload_bytes);
  /// True when the fault's scope covers this source/destination pair.
  [[nodiscard]] static bool covers(const Active& fault, net::NodeId src,
                                   net::NodeId dst) noexcept;

  net::Network& network_;
  std::uint64_t seed_;
  std::uint64_t next_index_ = 0;  ///< monotonically armed event count
  std::uint64_t next_id_ = 1;
  /// id -> active fault; std::map keeps hook iteration (and therefore
  /// RNG consumption order) deterministic.
  std::map<std::uint64_t, std::unique_ptr<Active>> active_;
  std::map<std::string, TargetHandler, std::less<>> targets_;

  COLLABQOS_COUNTER_SET(Counters, ChaosStats, COLLABQOS_CHAOS_COUNTERS);
  Counters stats_;
};

}  // namespace collabqos::chaos
