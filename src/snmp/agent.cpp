#include "collabqos/snmp/agent.hpp"

#include <stdexcept>

#include "collabqos/telemetry/pipeline.hpp"

namespace collabqos::snmp {

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
  if (!Pdu::decode_into(flat, request_)) {
    ++stats_.malformed;
    return;  // real agents drop undecodable datagrams silently
  }
  if (request_.type == PduType::response || request_.type == PduType::trap) {
    return;  // not a request; ignore
  }
  service(request_, response_);
  // Model the agent's instrumentation latency before the reply leaves.
  replies_.push_back(Reply{datagram.source, response_.encode()});
  network_.simulator().schedule_after(delay_, [this] { send_next_reply(); });
}

void Agent::send_next_reply() {
  Reply reply = std::move(replies_[next_reply_++]);
  if (next_reply_ == replies_.size()) {
    replies_.clear();
    next_reply_ = 0;
  }
  ++stats_.responses;
  (void)endpoint_->send(reply.requester, std::move(reply.bytes));
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
    } else if (!crossed) {
      armed.latched = false;  // re-arm once the value recedes
    }
  }
}

void Agent::service(const Pdu& request, Pdu& response) {
  response.type = PduType::response;
  response.community = request.community;
  response.request_id = request.request_id;
  response.error_status = ErrorStatus::no_error;
  response.error_index = 0;
  response.bindings = request.bindings;

  if (!authorized(request)) {
    ++stats_.auth_failures;
    response.error_status = ErrorStatus::no_access;
    return;
  }
  if (request.bindings.empty() ||
      request.bindings.size() > Pdu::kMaxBindings) {
    response.error_status = ErrorStatus::too_big;
    return;
  }

  if (request.type == PduType::get_bulk) {
    // v2c semantics: walk up to max-repetitions successors per varbind;
    // walking off the MIB end simply truncates (endOfMibView analogue).
    // Successors are consecutive table entries.
    const auto repetitions =
        std::min<std::uint32_t>(request.error_index,
                                static_cast<std::uint32_t>(Pdu::kMaxBindings));
    response.bindings.clear();
    for (const VarBind& vb : request.bindings) {
      std::size_t next = mib_.upper_bound(vb.oid);
      for (std::uint32_t rep = 0; rep < repetitions && next < mib_.size();
           ++rep, ++next) {
        if (response.bindings.size() >= Pdu::kMaxBindings) break;
        response.bindings.push_back({mib_.oid_at(next), mib_.value_at(next)});
      }
    }
    return;
  }

  const auto fail = [&response](ErrorStatus status, std::size_t i) {
    response.error_status = status;
    response.error_index = static_cast<std::uint32_t>(i + 1);
  };
  for (std::size_t i = 0; i < request.bindings.size(); ++i) {
    const VarBind& vb = request.bindings[i];
    switch (request.type) {
      case PduType::get: {
        const std::size_t found = mib_.find(vb.oid);
        if (found == mib_.size()) return fail(ErrorStatus::no_such_name, i);
        response.bindings[i].value = mib_.value_at(found);
        break;
      }
      case PduType::get_next: {
        const std::size_t next = mib_.upper_bound(vb.oid);
        if (next == mib_.size()) return fail(ErrorStatus::no_such_name, i);
        response.bindings[i] = {mib_.oid_at(next), mib_.value_at(next)};
        break;
      }
      case PduType::set: {
        const Status status = mib_.set(vb.oid, vb.value);
        if (!status) {
          return fail(status.code() == Errc::no_such_object
                          ? ErrorStatus::no_such_name
                      : status.code() == Errc::access_denied
                          ? ErrorStatus::read_only
                          : ErrorStatus::bad_value,
                      i);
        }
        break;
      }
      case PduType::response:
      case PduType::trap:
      case PduType::get_bulk:  // handled above; unreachable here
        response.error_status = ErrorStatus::gen_err;
        return;
    }
  }
}

}  // namespace collabqos::snmp
