#include "collabqos/snmp/host_mib.hpp"

#include <cmath>

namespace collabqos::snmp {

void install_host_instrumentation(Agent& agent, sim::Host& host,
                                  sim::Simulator& simulator) {
  Mib& mib = agent.mib();
  mib.add_scalar(oids::sys_descr(),
                 Value::octets("collabqos embedded extension agent"));
  mib.add_scalar(oids::sys_name(), Value::octets(host.name()));
  mib.add_provider(oids::sys_uptime(), [&simulator] {
    return Value::timeticks(
        static_cast<std::uint64_t>(simulator.now().as_seconds() * 100.0));
  });
  mib.add_provider(oids::hr_processor_load(), [&host] {
    return Value::gauge(
        static_cast<std::uint64_t>(std::lround(host.metrics().cpu_load_percent)));
  });
  mib.add_provider(oids::tassl_cpu_load(), [&host] {
    return Value::gauge(
        static_cast<std::uint64_t>(std::lround(host.metrics().cpu_load_percent)));
  });
  mib.add_provider(oids::tassl_page_faults(), [&host] {
    return Value::gauge(
        static_cast<std::uint64_t>(std::lround(host.metrics().page_faults)));
  });
  mib.add_provider(oids::tassl_free_memory(), [&host] {
    return Value::gauge(
        static_cast<std::uint64_t>(std::lround(host.metrics().free_memory_kb)));
  });
  mib.add_provider(oids::tassl_if_utilization(), [&host] {
    return Value::gauge(static_cast<std::uint64_t>(
        std::lround(host.metrics().if_utilization_percent)));
  });
}

void install_interface_instrumentation(Agent& agent, net::Network& network,
                                       net::NodeId node) {
  agent.mib().add_provider(oids::tassl_bandwidth(), [&network, node] {
    const auto params = network.link_params(node);
    const double bps = params ? params.value().bandwidth_bps : 0.0;
    return Value::gauge(static_cast<std::uint64_t>(bps / 1000.0));
  });
}

}  // namespace collabqos::snmp
