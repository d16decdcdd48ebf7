#include "collabqos/snmp/telemetry_mib.hpp"

#include <algorithm>
#include <cmath>

namespace collabqos::snmp {

void install_telemetry_instrumentation(
    Agent& agent, const telemetry::MetricsRegistry& registry) {
  Mib& mib = agent.mib();
  mib.add_provider(oids::tassl_telemetry_count(), [&registry] {
    return Value::gauge(registry.family_count());
  });
  // Families and their export ids are never removed or renumbered, so
  // each value provider resolves its family here, once; the instruments
  // behind it may come and go, and the family sum follows. The names
  // are static. The whole directory goes in before the values, so both
  // runs register in OID order.
  const auto directory = registry.export_directory();
  for (const auto& family : directory) {
    mib.add_scalar(oids::tassl_telemetry_name(family.export_id),
                   Value::octets(family.name));
  }
  for (const auto& family : directory) {
    mib.add_provider(
        oids::tassl_telemetry_value(family.export_id),
        [&registry, ref = family.family, kind = family.kind] {
          const double v = registry.read(ref);
          if (kind == telemetry::InstrumentKind::gauge) {
            return Value::gauge(static_cast<std::uint64_t>(
                std::llround(std::max(0.0, v))));
          }
          return Value::counter(static_cast<std::uint64_t>(v));
        });
  }
}

}  // namespace collabqos::snmp
