// One wired workstation of the paper's test-bed (§4.1, §5.5): a simulated
// host on its own network node, the embedded SNMP extension agent that
// exports the host's CPU load, page faults, memory and interface
// bandwidth, and a collaboration client whose manager polls that agent
// and whose inference engine adapts what the client receives.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "collabqos/core/client.hpp"
#include "collabqos/sim/host.hpp"
#include "collabqos/snmp/agent.hpp"
#include "collabqos/snmp/manager.hpp"

namespace collabqos::core {

class Workstation {
 public:
  /// Adds node `name` to `network` and joins `session` as client
  /// `client_id`, deciding under `contract` with the default policies.
  Workstation(net::Network& network, const SessionInfo& session,
              const std::string& name, std::uint64_t client_id,
              QoSContract contract = {});

  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] sim::Host& host() noexcept { return *host_; }
  [[nodiscard]] snmp::Agent& agent() noexcept { return *agent_; }
  [[nodiscard]] CollaborationClient& client() noexcept { return *client_; }

 private:
  net::NodeId node_;
  std::unique_ptr<sim::Host> host_;
  std::unique_ptr<snmp::Agent> agent_;
  std::unique_ptr<snmp::Manager> manager_;
  std::unique_ptr<CollaborationClient> client_;
};

}  // namespace collabqos::core
