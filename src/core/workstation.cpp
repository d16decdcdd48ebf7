#include "collabqos/core/workstation.hpp"

#include <utility>

#include "collabqos/snmp/host_mib.hpp"

namespace collabqos::core {

namespace {
/// No program sends a SET, so every agent shares one write community.
constexpr const char* kWriteCommunity = "private";
}  // namespace

Workstation::Workstation(net::Network& network, const SessionInfo& session,
                         const std::string& name, std::uint64_t client_id,
                         QoSContract contract)
    : node_(network.add_node(name)) {
  sim::Simulator& simulator = network.simulator();
  host_ = std::make_unique<sim::Host>(simulator, name);
  agent_ = std::make_unique<snmp::Agent>(network, node_, "public",
                                         kWriteCommunity);
  snmp::install_host_instrumentation(*agent_, *host_, simulator);
  snmp::install_interface_instrumentation(*agent_, network, node_);
  manager_ = std::make_unique<snmp::Manager>(network, node_);
  ClientConfig config;
  config.name = name;
  client_ = std::make_unique<CollaborationClient>(
      network, node_, session, client_id, manager_.get(),
      InferenceEngine(std::move(contract), PolicyDatabase::with_defaults()),
      std::move(config));
}

}  // namespace collabqos::core
