// Self-export: publish the telemetry registry as an OID subtree on an
// embedded agent, so the framework's own internals are readable through
// the same management plane it uses to monitor hosts and routers
// (paper §5.5). A snmp::Manager can GETNEXT-walk
// enterprises.26510.10 and see, e.g., how many messages every peer in
// the process accepted, without any side channel.
//
// Layout under oids::tassl_telemetry_root() (= enterprises.26510.10):
//   .0.0              number of exported metric families   (Gauge)
//   .1.<id>.0         family name, dotted                  (OCTET STRING)
//   .2.<id>.0         family value (summed across attached
//                     instruments)                          (Counter/Gauge)
// <id> is the registry's stable export id, assigned at family creation.
#pragma once

#include "collabqos/snmp/agent.hpp"
#include "collabqos/telemetry/metrics.hpp"

namespace collabqos::snmp {

/// Install providers for every family currently in `registry` (plus the
/// live family-count scalar). Values are read live at GET time; the
/// directory reflects install time. Idempotent — call again to pick up
/// families created since the last install.
void install_telemetry_instrumentation(
    Agent& agent, const telemetry::MetricsRegistry& registry =
                      telemetry::MetricsRegistry::global());

}  // namespace collabqos::snmp
