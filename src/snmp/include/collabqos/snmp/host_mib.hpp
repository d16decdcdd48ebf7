// Instrumentation routines: wires a simulated host's live metrics into an
// agent's MIB under both standard-ish OIDs (hrProcessorLoad) and the
// framework's private extension subtree (paper: "we have built a
// specialized embedded extension agent that runs on each host and is
// serviced by instrumentation routines").
#pragma once

#include "collabqos/sim/host.hpp"
#include "collabqos/snmp/agent.hpp"

namespace collabqos::snmp {

/// Populate `agent`'s MIB with system group scalars and live host metrics.
/// `host` must outlive `agent`.
void install_host_instrumentation(Agent& agent, sim::Host& host,
                                  sim::Simulator& simulator);

/// Populate interface/bandwidth objects from the network's view of the
/// node's link. `network` must outlive `agent`.
void install_interface_instrumentation(Agent& agent, net::Network& network,
                                       net::NodeId node);

}  // namespace collabqos::snmp
