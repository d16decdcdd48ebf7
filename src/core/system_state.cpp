#include "collabqos/core/system_state.hpp"

#include "collabqos/snmp/oid.hpp"
#include "collabqos/util/logging.hpp"

namespace collabqos::core {

namespace {
constexpr std::string_view kComponent = "core.state";
}

SystemStateInterface::SystemStateInterface(snmp::Manager& manager,
                                           net::NodeId agent_node,
                                           sim::Simulator& simulator,
                                           SystemStateOptions options)
    : manager_(manager),
      agent_node_(agent_node),
      options_(std::move(options)),
      poll_oids_({snmp::oids::tassl_cpu_load(),
                  snmp::oids::tassl_page_faults(),
                  snmp::oids::tassl_free_memory(),
                  snmp::oids::tassl_if_utilization(),
                  snmp::oids::tassl_bandwidth()}),
      alive_(std::make_shared<bool>(true)) {
  timer_ = std::make_unique<sim::PeriodicTimer>(
      simulator, options_.poll_interval, [this] { poll_now(); });
}

SystemStateInterface::~SystemStateInterface() { *alive_ = false; }

void SystemStateInterface::start() { timer_->start(); }
Status SystemStateInterface::enable_trap_fast_path() {
  return manager_.listen_for_traps(
      [this, alive = alive_](net::NodeId source, const snmp::Pdu&) {
        if (!*alive) return;
        if (source != agent_node_) return;  // someone else's host
        CQ_DEBUG(kComponent) << "trap fast path: immediate poll";
        poll_now();
      });
}

void SystemStateInterface::poll_now() {
  if (poll_oids_.empty()) return;
  manager_.get(agent_node_, options_.community, poll_oids_,
               [this, alive = alive_](Result<snmp::Pdu> result) {
                 if (!*alive) return;
                 if (!result) {
                   ++failures_;
                   fresh_ = false;
                   CQ_DEBUG(kComponent)
                       << "poll failed: " << result.error().message;
                   return;
                 }
                 apply(result.value());
               });
}

void SystemStateInterface::apply(const snmp::Pdu& response) {
  if (response.error_status == snmp::ErrorStatus::no_such_name &&
      response.error_index >= 1 &&
      response.error_index <= poll_oids_.size()) {
    // The agent does not implement this object; stop asking for it
    // (the standard manager workaround for sparse extension MIBs).
    const std::size_t index = response.error_index - 1;
    CQ_WARN(kComponent) << "agent lacks " << poll_oids_[index].to_string()
                        << "; dropping it from the poll set";
    poll_oids_.erase(poll_oids_.begin() + static_cast<std::ptrdiff_t>(index));
    poll_now();  // retry immediately with the reduced set
    return;
  }
  if (response.error_status != snmp::ErrorStatus::no_error) {
    ++failures_;
    fresh_ = false;
    return;
  }
  pubsub::AttributeSet next;
  const auto put = [&next](const snmp::Oid& oid, const snmp::VarBind& vb,
                           const char* key) {
    if (vb.oid != oid) return false;
    const auto number = vb.value.as_number();
    if (number) next.set(key, number.value());
    return true;
  };
  for (const snmp::VarBind& vb : response.bindings) {
    (void)(put(snmp::oids::tassl_cpu_load(), vb, "cpu.load") ||
           put(snmp::oids::tassl_page_faults(), vb, "page.faults") ||
           put(snmp::oids::tassl_free_memory(), vb, "memory.free") ||
           put(snmp::oids::tassl_if_utilization(), vb, "if.utilization") ||
           put(snmp::oids::tassl_bandwidth(), vb, "bandwidth.kbps"));
  }
  fresh_ = true;
  const bool changed = !(next == state_);
  state_ = std::move(next);
  if (changed && handler_) handler_(state_);
}

}  // namespace collabqos::core
