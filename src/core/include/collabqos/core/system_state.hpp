// The network/system state interface (paper §5.5): periodically queries
// the host's embedded SNMP extension agent and publishes the snapshot as
// a state attribute set the inference engine consumes. "It uses the IP
// address of the network element, the community string, and the object
// identifier (OID) of the parameters of interest (bandwidth, CPU load,
// page-faults, etc.) to directly query the SNMP MIB."
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "collabqos/pubsub/attribute.hpp"
#include "collabqos/snmp/manager.hpp"

namespace collabqos::core {

struct SystemStateOptions {
  std::string community = "public";
  sim::Duration poll_interval = sim::Duration::millis(500);
};

/// Polls one agent; caches the latest snapshot; notifies on change.
class SystemStateInterface {
 public:
  using UpdateHandler = std::function<void(const pubsub::AttributeSet&)>;

  SystemStateInterface(snmp::Manager& manager, net::NodeId agent_node,
                       sim::Simulator& simulator,
                       SystemStateOptions options = {});
  ~SystemStateInterface();
  SystemStateInterface(const SystemStateInterface&) = delete;
  SystemStateInterface& operator=(const SystemStateInterface&) = delete;

  void on_update(UpdateHandler handler) { handler_ = std::move(handler); }

  /// Begin the polling loop.
  void start();

  /// React to agent traps ahead of the next poll tick: any trap from the
  /// monitored node triggers an immediate poll (closing the loop faster
  /// than the polling cadence when the host crosses a threshold).
  /// Fails if another listener already owns the node's trap port.
  Status enable_trap_fast_path();

  /// Fire one poll immediately (also used by the timer).
  void poll_now();

  /// Latest snapshot (empty until the first successful poll).
  [[nodiscard]] const pubsub::AttributeSet& state() const noexcept {
    return state_;
  }
  [[nodiscard]] bool fresh() const noexcept { return fresh_; }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }

 private:
  void apply(const snmp::Pdu& response);

  snmp::Manager& manager_;
  net::NodeId agent_node_;
  SystemStateOptions options_;
  /// OIDs still being polled; entries the agent reports noSuchName for
  /// are dropped (hosts may not expose every extension object).
  std::vector<snmp::Oid> poll_oids_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  pubsub::AttributeSet state_;
  UpdateHandler handler_;
  bool fresh_ = false;
  std::uint64_t failures_ = 0;
  std::shared_ptr<bool> alive_;  ///< guards in-flight SNMP callbacks
};

}  // namespace collabqos::core
