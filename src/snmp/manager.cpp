#include "collabqos/snmp/manager.hpp"

#include <stdexcept>

#include "collabqos/telemetry/pipeline.hpp"
#include "collabqos/util/logging.hpp"

namespace collabqos::snmp {

namespace {
constexpr std::string_view kComponent = "snmp.manager";
}

Manager::Manager(net::Network& network, net::NodeId node, Options options)
    : network_(network), options_(options) {
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

void Manager::get(net::NodeId agent, const std::string& community,
                  std::vector<Oid> oids, Callback callback) {
  Pdu pdu;
  pdu.type = PduType::get;
  pdu.community = community;
  pdu.bindings.resize(oids.size());
  for (std::size_t i = 0; i < oids.size(); ++i) {
    pdu.bindings[i].oid = std::move(oids[i]);
  }
  send_request(std::move(pdu), net::Address{agent, kAgentPort},
               std::move(callback));
}

void Manager::get_next(net::NodeId agent, const std::string& community,
                       std::vector<Oid> oids, Callback callback) {
  Pdu pdu;
  pdu.type = PduType::get_next;
  pdu.community = community;
  pdu.bindings.resize(oids.size());
  for (std::size_t i = 0; i < oids.size(); ++i) {
    pdu.bindings[i].oid = std::move(oids[i]);
  }
  send_request(std::move(pdu), net::Address{agent, kAgentPort},
               std::move(callback));
}

void Manager::get_bulk(net::NodeId agent, const std::string& community,
                       std::vector<Oid> oids,
                       std::uint32_t max_repetitions, Callback callback) {
  Pdu pdu;
  pdu.type = PduType::get_bulk;
  pdu.community = community;
  pdu.error_index = max_repetitions;  // v2c field reuse
  pdu.bindings.resize(oids.size());
  for (std::size_t i = 0; i < oids.size(); ++i) {
    pdu.bindings[i].oid = std::move(oids[i]);
  }
  send_request(std::move(pdu), net::Address{agent, kAgentPort},
               std::move(callback));
}

void Manager::set(net::NodeId agent, const std::string& community,
                  std::vector<VarBind> bindings, Callback callback) {
  Pdu pdu;
  pdu.type = PduType::set;
  pdu.community = community;
  pdu.bindings = std::move(bindings);
  send_request(std::move(pdu), net::Address{agent, kAgentPort},
               std::move(callback));
}

void Manager::walk(
    net::NodeId agent, const std::string& community, const Oid& root,
    std::function<void(Result<std::vector<VarBind>>)> callback) {
  // Accumulate results across chained GETNEXT steps. The closure holds
  // only a weak self-reference; each in-flight request's callback keeps
  // the strong one, so the chain stays alive exactly as long as a
  // response is pending and is freed when the walk ends (no refcount
  // cycle).
  auto collected = std::make_shared<std::vector<VarBind>>();
  auto step = std::make_shared<std::function<void(Oid)>>();
  *step = [this, agent, community, root, collected,
           weak = std::weak_ptr(step),
           callback = std::move(callback)](Oid cursor) {
    const auto self = weak.lock();
    get_next(agent, community, {std::move(cursor)},
             [root, collected, self, callback](Result<Pdu> result) {
               if (!result) {
                 callback(result.error());
                 return;
               }
               const Pdu& pdu = result.value();
               if (pdu.error_status == ErrorStatus::no_such_name ||
                   pdu.bindings.empty() ||
                   !root.is_prefix_of(pdu.bindings.front().oid)) {
                 callback(std::move(*collected));  // walked past the subtree
                 return;
               }
               if (pdu.error_status != ErrorStatus::no_error) {
                 callback(Error{Errc::internal,
                                std::string(to_string(pdu.error_status))});
                 return;
               }
               collected->push_back(pdu.bindings.front());
               (*self)(pdu.bindings.front().oid);
             });
  };
  (*step)(root);
}

void Manager::bulk_walk(
    net::NodeId agent, const std::string& community, const Oid& root,
    std::uint32_t max_repetitions,
    std::function<void(Result<std::vector<VarBind>>)> callback) {
  // Same weak-self pattern as walk() above: no refcount cycle.
  auto collected = std::make_shared<std::vector<VarBind>>();
  auto step = std::make_shared<std::function<void(Oid)>>();
  *step = [this, agent, community, root, max_repetitions, collected,
           weak = std::weak_ptr(step),
           callback = std::move(callback)](Oid cursor) {
    const auto self = weak.lock();
    get_bulk(agent, community, {std::move(cursor)}, max_repetitions,
             [root, collected, self, callback](Result<Pdu> result) {
               if (!result) {
                 callback(result.error());
                 return;
               }
               const Pdu& pdu = result.value();
               if (pdu.error_status != ErrorStatus::no_error) {
                 callback(Error{Errc::internal,
                                std::string(to_string(pdu.error_status))});
                 return;
               }
               // Done at the first OID outside the subtree, or at an
               // empty batch (the agent walked off the end of its MIB).
               for (const VarBind& vb : pdu.bindings) {
                 if (!root.is_prefix_of(vb.oid)) {
                   callback(std::move(*collected));
                   return;
                 }
                 collected->push_back(vb);
               }
               if (pdu.bindings.empty()) {
                 callback(std::move(*collected));
                 return;
               }
               (*self)(pdu.bindings.back().oid);
             });
  };
  (*step)(root);
}

void Manager::send_request(Pdu pdu, net::Address agent, Callback callback) {
  const std::uint32_t id = next_request_id_++;
  pdu.request_id = id;
  Outstanding out;
  out.request = std::move(pdu);
  out.agent = agent;
  out.callback = std::move(callback);
  out.attempts_left = options_.retries;
  outstanding_.emplace(id, std::move(out));
  ++stats_.requests;
  transmit(id);
}

void Manager::transmit(std::uint32_t request_id) {
  auto it = outstanding_.find(request_id);
  if (it == outstanding_.end()) return;
  Outstanding& out = it->second;
  (void)endpoint_->send(out.agent, out.request.encode());
  out.timeout_event = network_.simulator().schedule_after(
      options_.timeout, [this, request_id] { on_timeout(request_id); });
}

void Manager::on_timeout(std::uint32_t request_id) {
  auto it = outstanding_.find(request_id);
  if (it == outstanding_.end()) return;
  Outstanding& out = it->second;
  if (out.attempts_left > 0) {
    --out.attempts_left;
    ++stats_.retries;
    CQ_DEBUG(kComponent) << "retrying request " << request_id;
    transmit(request_id);
    return;
  }
  ++stats_.timeouts;
  Callback callback = std::move(out.callback);
  outstanding_.erase(it);
  callback(Error{Errc::timeout, "agent did not respond"});
}

void Manager::on_datagram(const net::Datagram& datagram) {
  const serde::SharedBytes flat = telemetry::flatten_counted(
      datagram.payload, telemetry::PipelineCounters::global().gather);
  auto decoded = Pdu::decode(flat);
  if (!decoded) {
    CQ_DEBUG(kComponent) << "undecodable response dropped";
    return;
  }
  Pdu pdu = std::move(decoded).take();
  if (pdu.type != PduType::response) return;
  auto it = outstanding_.find(pdu.request_id);
  if (it == outstanding_.end()) return;  // late duplicate after timeout
  if (datagram.source != it->second.agent) return;  // spoof guard
  network_.simulator().cancel(it->second.timeout_event);
  Callback callback = std::move(it->second.callback);
  outstanding_.erase(it);
  ++stats_.responses;
  if (pdu.error_status == ErrorStatus::no_access) {
    callback(Error{Errc::access_denied, "community rejected"});
    return;
  }
  callback(std::move(pdu));
}

}  // namespace collabqos::snmp
