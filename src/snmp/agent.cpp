#include "collabqos/snmp/agent.hpp"

#include <stdexcept>

#include "collabqos/telemetry/pipeline.hpp"
#include "collabqos/util/logging.hpp"

namespace collabqos::snmp {

namespace {
constexpr std::string_view kComponent = "snmp.agent";
}

Agent::Agent(net::Network& network, net::NodeId node,
             std::string read_community, std::string write_community)
    : network_(network),
      read_community_(std::move(read_community)),
      write_community_(std::move(write_community)) {
  auto endpoint = network.bind(node, kAgentPort);
  if (!endpoint) {
    throw std::runtime_error("snmp::Agent: cannot bind port 161: " +
                             endpoint.error().message);
  }
  endpoint_ = std::move(endpoint).take();
  stats_.attach(telemetry::MetricsRegistry::global());
  endpoint_->on_receive(
      [this](const net::Datagram& datagram) { handle(datagram); });
}

bool Agent::authorized(const Pdu& request) const {
  if (request.type == PduType::set) {
    return request.community == write_community_;
  }
  return request.community == read_community_ ||
         request.community == write_community_;
}

void Agent::handle(const net::Datagram& datagram) {
  ++stats_.requests;
  const serde::SharedBytes flat = telemetry::flatten_counted(
      datagram.payload, telemetry::PipelineCounters::global().gather);
  auto decoded = Pdu::decode(flat);
  if (!decoded) {
    ++stats_.malformed;
    CQ_DEBUG(kComponent) << "malformed request from "
                         << to_string(datagram.source);
    return;  // real agents drop undecodable datagrams silently
  }
  const Pdu& request = decoded.value();
  if (request.type == PduType::response || request.type == PduType::trap) {
    return;  // not a request; ignore
  }
  Pdu response = service(request);
  const net::Address requester = datagram.source;
  // Model the agent's instrumentation latency before the reply leaves.
  network_.simulator().schedule_after(
      delay_, [this, requester, bytes = response.encode()]() mutable {
        ++stats_.responses;
        (void)endpoint_->send(requester, std::move(bytes));
      });
}

Status Agent::send_trap(net::NodeId sink, std::vector<VarBind> bindings) {
  Pdu trap;
  trap.type = PduType::trap;
  trap.community = read_community_;
  trap.bindings = std::move(bindings);
  ++stats_.traps_sent;
  return endpoint_->send(net::Address{sink, kTrapPort}, trap.encode());
}

void Agent::add_trap_rule(TrapRule rule) {
  trap_rules_.push_back(ArmedRule{std::move(rule), false});
}

void Agent::start_trap_monitor(net::NodeId sink, sim::Duration period) {
  trap_sink_ = sink;
  trap_timer_ = std::make_unique<sim::PeriodicTimer>(
      network_.simulator(), period, [this] { evaluate_trap_rules(); });
  trap_timer_->start();
}

void Agent::stop_trap_monitor() {
  if (trap_timer_) trap_timer_->stop();
}

void Agent::evaluate_trap_rules() {
  for (ArmedRule& armed : trap_rules_) {
    const auto value = mib_.get(armed.rule.oid);
    if (!value) continue;
    const auto number = value.value().as_number();
    if (!number) continue;
    const bool crossed = armed.rule.fire_above
                             ? number.value() > armed.rule.threshold
                             : number.value() < armed.rule.threshold;
    if (crossed && !armed.latched) {
      armed.latched = true;
      (void)send_trap(trap_sink_, {VarBind{armed.rule.oid, value.value()}});
      CQ_DEBUG(kComponent) << "trap fired for "
                           << armed.rule.oid.to_string();
    } else if (!crossed) {
      armed.latched = false;  // re-arm once the value recedes
    }
  }
}

Pdu Agent::service(const Pdu& request) {
  Pdu response;
  response.type = PduType::response;
  response.community = request.community;
  response.request_id = request.request_id;
  response.bindings = request.bindings;

  if (!authorized(request)) {
    ++stats_.auth_failures;
    response.error_status = ErrorStatus::no_access;
    return response;
  }
  if (request.bindings.empty() ||
      request.bindings.size() > Pdu::kMaxBindings) {
    response.error_status = ErrorStatus::too_big;
    return response;
  }

  if (request.type == PduType::get_bulk) {
    // v2c semantics: walk up to max-repetitions successors per varbind;
    // walking off the MIB end simply truncates (endOfMibView analogue).
    const auto repetitions =
        std::min<std::uint32_t>(request.error_index,
                                static_cast<std::uint32_t>(Pdu::kMaxBindings));
    response.error_index = 0;
    response.bindings.clear();
    for (const VarBind& vb : request.bindings) {
      Oid cursor = vb.oid;
      for (std::uint32_t rep = 0; rep < repetitions; ++rep) {
        if (response.bindings.size() >= Pdu::kMaxBindings) break;
        auto next = mib_.get_next(cursor);
        if (!next) break;
        auto [oid, value] = std::move(next).take();
        cursor = oid;
        response.bindings.push_back({std::move(oid), std::move(value)});
      }
    }
    return response;
  }

  for (std::size_t i = 0; i < request.bindings.size(); ++i) {
    const VarBind& vb = request.bindings[i];
    switch (request.type) {
      case PduType::get: {
        auto value = mib_.get(vb.oid);
        if (!value) {
          response.error_status = ErrorStatus::no_such_name;
          response.error_index = static_cast<std::uint32_t>(i + 1);
          return response;
        }
        response.bindings[i].value = std::move(value).take();
        break;
      }
      case PduType::get_next: {
        auto next = mib_.get_next(vb.oid);
        if (!next) {
          response.error_status = ErrorStatus::no_such_name;
          response.error_index = static_cast<std::uint32_t>(i + 1);
          return response;
        }
        response.bindings[i].oid = next.value().first;
        response.bindings[i].value = next.value().second;
        break;
      }
      case PduType::set: {
        const Status status = mib_.set(vb.oid, vb.value);
        if (!status) {
          response.error_status =
              status.code() == Errc::no_such_object ? ErrorStatus::no_such_name
              : status.code() == Errc::access_denied ? ErrorStatus::read_only
                                                     : ErrorStatus::bad_value;
          response.error_index = static_cast<std::uint32_t>(i + 1);
          return response;
        }
        break;
      }
      case PduType::response:
      case PduType::trap:
      case PduType::get_bulk:  // handled above; unreachable here
        response.error_status = ErrorStatus::gen_err;
        return response;
    }
  }
  return response;
}

}  // namespace collabqos::snmp
