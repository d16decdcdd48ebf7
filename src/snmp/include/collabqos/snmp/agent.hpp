// SNMP agent: listens on the simulated network, authenticates community
// strings, and services GET / GETNEXT / SET against its MIB. Hosts run
// the framework's "specialized embedded extension agent" (paper §5.5),
// which is this class plus the host instrumentation in host_mib.hpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "collabqos/net/network.hpp"
#include "collabqos/snmp/mib.hpp"
#include "collabqos/snmp/pdu.hpp"
#include "collabqos/telemetry/counter_set.hpp"

namespace collabqos::snmp {

/// The agent's counters, declared once (telemetry/counter_set.hpp).
#define COLLABQOS_AGENT_COUNTERS(X)                                            \
  X(requests, "snmp.agent.requests")                                           \
  X(auth_failures, "snmp.agent.auth_failures")                                 \
  X(malformed, "snmp.agent.malformed")                                         \
  X(responses, "snmp.agent.responses")                                         \
  X(traps_sent, "snmp.agent.traps_sent")

/// Point-in-time view (registry families "snmp.agent.*").
struct AgentStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_AGENT_COUNTERS)
};

/// Edge-triggered threshold watch: when the object's value crosses
/// `threshold` in the configured direction, the agent emits a trap to
/// the registered sink (and re-arms after the value recedes).
struct TrapRule {
  Oid oid;
  double threshold = 0.0;
  bool fire_above = true;  ///< false: fire when the value drops below
};

class Agent {
 public:
  /// Binds to `node`:161 on `network`. Throws std::runtime_error when the
  /// port is taken (an agent without its port is a deployment bug).
  Agent(net::Network& network, net::NodeId node, std::string read_community,
        std::string write_community);

  [[nodiscard]] Mib& mib() noexcept { return mib_; }
  [[nodiscard]] const Mib& mib() const noexcept { return mib_; }
  [[nodiscard]] net::Address address() const noexcept {
    return endpoint_->address();
  }
  [[nodiscard]] AgentStats stats() const noexcept { return stats_.view(); }

  /// Send an unsolicited trap to `sink`:162 immediately.
  Status send_trap(net::NodeId sink, std::vector<VarBind> bindings);

  /// Register a threshold watch and (re)start the monitor loop that
  /// evaluates all rules every `period`, trapping to `sink`.
  void add_trap_rule(TrapRule rule);
  void start_trap_monitor(net::NodeId sink, sim::Duration period);
  void stop_trap_monitor();

 private:
  /// Registry-backed counters; AgentStats is the cheap view.
  COLLABQOS_COUNTER_SET(Counters, AgentStats, COLLABQOS_AGENT_COUNTERS);

  void handle(const net::Datagram& datagram);
  /// Fills `response` (reused across requests) with the answer.
  void service(const Pdu& request, Pdu& response);
  [[nodiscard]] bool authorized(const Pdu& request) const;
  void send_next_reply();
  void evaluate_trap_rules();

  net::Network& network_;
  std::unique_ptr<net::Endpoint> endpoint_;
  Mib mib_;
  std::string read_community_;
  std::string write_community_;
  /// Artificial per-request processing delay (models agent latency).
  sim::Duration delay_ = sim::Duration::micros(500);
  Counters stats_;
  /// The last request and its response; their buffers carry over.
  Pdu request_;
  Pdu response_;
  /// Encoded replies waiting out `delay_`, oldest first. Every reply
  /// waits the same delay, so they leave in arrival order; the timer
  /// event for each carries only `this`.
  struct Reply {
    net::Address requester;
    serde::SharedBytes bytes;
  };
  std::vector<Reply> replies_;
  std::size_t next_reply_ = 0;
  struct ArmedRule {
    TrapRule rule;
    bool latched = false;  ///< true after firing, until the value recedes
  };
  std::vector<ArmedRule> trap_rules_;
  net::NodeId trap_sink_{};
  std::unique_ptr<sim::PeriodicTimer> trap_timer_;
};

}  // namespace collabqos::snmp
