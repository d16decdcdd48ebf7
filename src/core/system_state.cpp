#include "collabqos/core/system_state.hpp"

#include <algorithm>
#include <iterator>

#include "collabqos/snmp/oid.hpp"

namespace collabqos::core {

namespace {
/// The extension objects the interface polls, in poll order, and the
/// state attribute each one feeds.
struct Polled {
  const snmp::Oid& oid;
  std::string_view key;
};
constexpr Polled kPolled[] = {
    {snmp::oids::kTasslCpuLoad, "cpu.load"},
    {snmp::oids::kTasslPageFaults, "page.faults"},
    {snmp::oids::kTasslFreeMemory, "memory.free"},
    {snmp::oids::kTasslIfUtilization, "if.utilization"},
    {snmp::oids::kTasslBandwidth, "bandwidth.kbps"},
};
}  // namespace

SystemStateInterface::SystemStateInterface(snmp::Manager& manager,
                                           net::NodeId agent_node,
                                           sim::Simulator& simulator,
                                           SystemStateOptions options)
    : manager_(manager),
      agent_node_(agent_node),
      options_(std::move(options)),
      alive_(std::make_shared<bool>(true)) {
  for (const Polled& polled : kPolled) poll_oids_.push_back(polled.oid);
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
  for (const snmp::VarBind& vb : response.bindings) {
    const auto polled =
        std::find_if(std::begin(kPolled), std::end(kPolled),
                     [&vb](const Polled& p) { return p.oid == vb.oid; });
    if (polled == std::end(kPolled)) continue;
    if (const auto number = vb.value.as_number()) {
      next.set(polled->key, number.value());
    }
  }
  fresh_ = true;
  const bool changed = !(next == state_);
  state_ = std::move(next);
  if (changed && handler_) handler_(state_);
}

}  // namespace collabqos::core
