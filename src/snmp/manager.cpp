#include "collabqos/snmp/manager.hpp"

#include <stdexcept>

#include "collabqos/telemetry/pipeline.hpp"

namespace collabqos::snmp {

Manager::Manager(net::Network& network, net::NodeId node)
    : network_(network) {
  auto endpoint = network.bind(node);
  if (!endpoint) {
    throw std::runtime_error("snmp::Manager: cannot bind: " +
                             endpoint.error().message);
  }
  endpoint_ = std::move(endpoint).take();
  stats_.attach(telemetry::MetricsRegistry::global());
  endpoint_->on_receive(
      [this](const net::Datagram& datagram) { on_datagram(datagram); });
}

Status Manager::listen_for_traps(TrapHandler handler) {
  trap_handler_ = std::move(handler);
  if (trap_endpoint_ == nullptr) {
    auto endpoint = network_.bind(endpoint_->address().node, kTrapPort);
    if (!endpoint) return endpoint.error();
    trap_endpoint_ = std::move(endpoint).take();
    trap_endpoint_->on_receive([this](const net::Datagram& datagram) {
      const serde::SharedBytes flat = telemetry::flatten_counted(
          datagram.payload, telemetry::PipelineCounters::global().gather);
      auto decoded = Pdu::decode(flat);
      if (!decoded || decoded.value().type != PduType::trap) return;
      ++stats_.traps_received;
      if (trap_handler_) {
        trap_handler_(datagram.source.node, decoded.value());
      }
    });
  }
  return {};
}

void Manager::prepare(PduType type, const std::string& community,
                      std::span<const Oid> oids) {
  request_.type = type;
  request_.community = community;
  request_.error_status = ErrorStatus::no_error;
  request_.error_index = 0;
  request_.bindings.resize(oids.size());
  for (std::size_t i = 0; i < oids.size(); ++i) {
    request_.bindings[i] = VarBind{oids[i], Value{}};
  }
}

void Manager::get(net::NodeId agent, const std::string& community,
                  std::vector<Oid> oids, Callback callback) {
  prepare(PduType::get, community, oids);
  send_request(agent, std::move(callback));
}

void Manager::get_next(net::NodeId agent, const std::string& community,
                       std::vector<Oid> oids, Callback callback) {
  prepare(PduType::get_next, community, oids);
  send_request(agent, std::move(callback));
}

void Manager::get_bulk(net::NodeId agent, const std::string& community,
                       std::vector<Oid> oids,
                       std::uint32_t max_repetitions, Callback callback) {
  prepare(PduType::get_bulk, community, oids);
  request_.error_index = max_repetitions;  // v2c field reuse
  send_request(agent, std::move(callback));
}

void Manager::set(net::NodeId agent, const std::string& community,
                  std::vector<VarBind> bindings, Callback callback) {
  prepare(PduType::set, community, {});
  request_.bindings.assign(bindings.begin(), bindings.end());
  send_request(agent, std::move(callback));
}

void Manager::bulk_walk(net::NodeId agent, const std::string& community,
                        const Oid& root, std::uint32_t max_repetitions,
                        WalkCallback callback) {
  const std::uint64_t id = next_walk_id_++;
  *walks_.try_emplace(id).first =
      Walk{agent, community, root, max_repetitions, {}, std::move(callback)};
  walk_step(id, root);
}

void Manager::walk_step(std::uint64_t walk_id, const Oid& cursor) {
  const Walk& walk = *walks_.find(walk_id);
  prepare(PduType::get_bulk, walk.community, {&cursor, 1});
  request_.error_index = walk.max_repetitions;  // GETBULK field reuse
  send_request(walk.agent, [this, walk_id](Result<Pdu> result) {
    on_walk_response(walk_id, std::move(result));
  });
}

void Manager::on_walk_response(std::uint64_t walk_id, Result<Pdu> result) {
  Walk& walk = *walks_.find(walk_id);
  // Ends the walk: the callback runs after the walk's entry is gone, so
  // it may start another.
  const auto finish = [this, walk_id, &walk](
                          Result<std::vector<VarBind>> outcome) {
    WalkCallback callback = std::move(walk.callback);
    walks_.erase(walk_id);
    callback(std::move(outcome));
  };
  if (!result) return finish(result.error());
  const Pdu& pdu = result.value();
  if (pdu.error_status != ErrorStatus::no_error) {
    return finish(
        Error{Errc::internal, std::string(to_string(pdu.error_status))});
  }
  // Done at the first OID outside the subtree, or at an empty batch (the
  // agent walked off the end of its MIB).
  for (const VarBind& vb : pdu.bindings) {
    if (!walk.root.is_prefix_of(vb.oid)) {
      return finish(std::move(walk.collected));
    }
    walk.collected.push_back(vb);
  }
  if (pdu.bindings.empty()) return finish(std::move(walk.collected));
  walk_step(walk_id, pdu.bindings.back().oid);
}

void Manager::send_request(net::NodeId agent, Callback callback) {
  const std::uint32_t id = next_request_id_++;
  request_.request_id = id;
  Outstanding& out = *outstanding_.try_emplace(id).first;
  out.wire = request_.encode();
  out.agent = net::Address{agent, kAgentPort};
  out.callback = std::move(callback);
  out.attempts_left = kRetries;
  ++stats_.requests;
  transmit(id);
}

void Manager::transmit(std::uint32_t request_id) {
  Outstanding* out = outstanding_.find(request_id);
  if (out == nullptr) return;
  (void)endpoint_->send(out->agent, out->wire);
  out->timeout_event = network_.simulator().schedule_after(
      kTimeout, [this, request_id] { on_timeout(request_id); });
}

void Manager::on_timeout(std::uint32_t request_id) {
  Outstanding* out = outstanding_.find(request_id);
  if (out == nullptr) return;
  if (out->attempts_left > 0) {
    --out->attempts_left;
    ++stats_.retries;
    transmit(request_id);
    return;
  }
  ++stats_.timeouts;
  Callback callback = std::move(out->callback);
  outstanding_.erase(request_id);
  callback(Error{Errc::timeout, "agent did not respond"});
}

void Manager::on_datagram(const net::Datagram& datagram) {
  const serde::SharedBytes flat = telemetry::flatten_counted(
      datagram.payload, telemetry::PipelineCounters::global().gather);
  auto decoded = Pdu::decode(flat);
  if (!decoded) return;
  Pdu pdu = std::move(decoded).take();
  if (pdu.type != PduType::response) return;
  Outstanding* out = outstanding_.find(pdu.request_id);
  if (out == nullptr) return;  // late duplicate after timeout
  if (datagram.source != out->agent) return;  // spoof guard
  network_.simulator().cancel(out->timeout_event);
  Callback callback = std::move(out->callback);
  outstanding_.erase(pdu.request_id);
  ++stats_.responses;
  if (pdu.error_status == ErrorStatus::no_access) {
    callback(Error{Errc::access_denied, "community rejected"});
    return;
  }
  callback(std::move(pdu));
}

}  // namespace collabqos::snmp
