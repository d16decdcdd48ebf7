#include "collabqos/net/network.hpp"

#include <cassert>

#include "collabqos/telemetry/pipeline.hpp"
#include "collabqos/util/hash.hpp"

namespace collabqos::net {

// ---------------------------------------------------------------- Endpoint

Endpoint::~Endpoint() {
  if (network_ != nullptr) network_->unbind(*this);
}

void Endpoint::on_receive(ReceiveHandler handler) {
  handler_ = std::move(handler);
}

Status Endpoint::send(Address destination, serde::ByteChain payload) {
  return network_->send_unicast(*this, destination, std::move(payload));
}

Status Endpoint::send_multicast(GroupId group, serde::ByteChain payload) {
  return network_->send_multicast(*this, group, std::move(payload));
}

Status Endpoint::join(GroupId group) {
  if (member_of(group)) {
    return Status(Errc::conflict, "already a member");
  }
  groups_.insert(raw(group));
  network_->join_group(*this, group);
  return {};
}

bool Endpoint::member_of(GroupId group) const {
  return groups_.contains(raw(group));
}

// ----------------------------------------------------------------- Network

Network::Network(sim::Simulator& simulator, std::uint64_t seed)
    : simulator_(simulator), seed_(seed) {
  stats_.attach(telemetry::MetricsRegistry::global());
}

Network::~Network() {
  // Endpoints may outlive us in tests only by bug; defensively detach.
  for (auto& [address, endpoint] : bound_) endpoint->network_ = nullptr;
}

NodeId Network::add_node(const std::string& name, LinkParams params) {
  const std::uint32_t id = next_node_++;
  Node node;
  node.name = name;
  // Per-link streams derived from (seed, node id, direction) — not drawn
  // from a shared RNG — so a link's loss/jitter sequence depends only on
  // the network seed and its own id, never on sibling links.
  const std::uint64_t link_seed =
      params.loss_seed != 0 ? params.loss_seed : derive_seed(seed_, id);
  node.uplink =
      std::make_unique<LinkModel>(params, Rng(derive_seed(link_seed, 1)));
  node.downlink =
      std::make_unique<LinkModel>(params, Rng(derive_seed(link_seed, 2)));
  node.counters = std::make_unique<NodeCounters>();
  node.counters->attach(telemetry::MetricsRegistry::global());
  nodes_.emplace(id, std::move(node));
  return make_node(id);
}

Status Network::set_link_params(NodeId node, LinkParams params) {
  const auto it = nodes_.find(raw(node));
  if (it == nodes_.end()) {
    return Status(Errc::no_such_object, "unknown node");
  }
  it->second.uplink->set_params(params);
  it->second.downlink->set_params(params);
  return {};
}

Result<LinkParams> Network::link_params(NodeId node) const {
  const auto it = nodes_.find(raw(node));
  if (it == nodes_.end()) {
    return Error{Errc::no_such_object, "unknown node"};
  }
  return it->second.uplink->params();
}

Result<std::unique_ptr<Endpoint>> Network::bind(NodeId node, Port port) {
  const auto it = nodes_.find(raw(node));
  if (it == nodes_.end()) {
    return Error{Errc::no_such_object, "unknown node"};
  }
  if (port == 0) {
    // Scan the node's ephemeral range for a free port.
    Node& entry = it->second;
    for (int attempts = 0; attempts < 16384; ++attempts) {
      const Port candidate = entry.next_ephemeral;
      entry.next_ephemeral =
          entry.next_ephemeral == 65535 ? 49152 : entry.next_ephemeral + 1;
      if (!bound_.contains(Address{node, candidate})) {
        port = candidate;
        break;
      }
    }
    if (port == 0) {
      return Error{Errc::resource_limit, "no free ephemeral port"};
    }
  }
  const Address address{node, port};
  if (bound_.contains(address)) {
    return Error{Errc::conflict, "port already bound"};
  }
  auto endpoint = std::unique_ptr<Endpoint>(new Endpoint(*this, address));
  bound_.emplace(address, endpoint.get());
  return endpoint;
}

Result<NodeId> Network::find_node(std::string_view name) const {
  for (const auto& [id, node] : nodes_) {
    if (node.name == name) return make_node(id);
  }
  return Error{Errc::no_such_object, "unknown node name"};
}

void Network::unbind(Endpoint& endpoint) {
  for (const std::uint32_t group : endpoint.groups_) {
    auto it = groups_.find(group);
    if (it != groups_.end()) {
      it->second.erase(endpoint.address_);
      if (it->second.empty()) groups_.erase(it);
    }
  }
  bound_.erase(endpoint.address_);
}

void Network::join_group(Endpoint& endpoint, GroupId group) {
  groups_[raw(group)].insert(endpoint.address_);
}

Status Network::send_unicast(Endpoint& from, Address to,
                             serde::ByteChain payload) {
  if (payload.size() > kMaxDatagram) {
    return Status(Errc::out_of_range, "datagram exceeds maximum size");
  }
  ++stats_.datagrams_sent;
  Node& source = nodes_.at(raw(from.address_.node));
  ++source.counters->datagrams_out;
  source.counters->bytes_out += payload.size();
  const LinkVerdict up = source.uplink->transmit(payload.size());
  if (!up.delivered) {
    ++stats_.datagrams_dropped_loss;
    return {};  // UDP semantics: loss is silent
  }
  route(from.address_, to, /*via_multicast=*/false, GroupId{}, payload,
        up.delay);
  return {};
}

Status Network::send_multicast(Endpoint& from, GroupId group,
                               serde::ByteChain payload) {
  if (payload.size() > kMaxDatagram) {
    return Status(Errc::out_of_range, "datagram exceeds maximum size");
  }
  ++stats_.datagrams_sent;
  Node& source = nodes_.at(raw(from.address_.node));
  ++source.counters->datagrams_out;
  source.counters->bytes_out += payload.size();
  const LinkVerdict up = source.uplink->transmit(payload.size());
  if (!up.delivered) {
    ++stats_.datagrams_dropped_loss;
    return {};
  }
  const auto it = groups_.find(raw(group));
  if (it == groups_.end()) return {};  // nobody home; silently absorbed
  // Copy membership: delivery callbacks may join/leave.
  const std::vector<Address> members(it->second.begin(), it->second.end());
  for (const Address member : members) {
    if (member == from.address_) continue;
    route(from.address_, member, /*via_multicast=*/true, group, payload,
          up.delay);
  }
  return {};
}

void Network::route(Address source, Address destination, bool via_multicast,
                    GroupId group, const serde::ByteChain& payload,
                    sim::Duration uplink_delay) {
  FaultDecision fault;
  if (fault_hook_) fault = fault_hook_(source, destination, payload.size());
  if (fault.drop) {
    ++stats_.datagrams_dropped_fault;
    return;
  }
  const auto node_it = nodes_.find(raw(destination.node));
  if (node_it == nodes_.end()) {
    ++stats_.datagrams_dropped_unbound;
    return;
  }
  const LinkVerdict down = node_it->second.downlink->transmit(payload.size());
  if (!down.delivered) {
    ++stats_.datagrams_dropped_loss;
    return;
  }
  ++node_it->second.counters->datagrams_in;
  node_it->second.counters->bytes_in += payload.size();
  const sim::Duration total = uplink_delay + down.delay + fault.extra_delay;
  Datagram datagram;
  datagram.source = source;
  datagram.destination = destination;
  datagram.via_multicast = via_multicast;
  datagram.group = group;
  datagram.payload = payload;
  datagram.sent_at = simulator_.now();
  if (fault.corrupt && payload.size() > 0 && fault.corrupt_xor != 0) {
    // The chain's buffers are shared with the sender and every other
    // receiver: a bit-flip must land on a private copy, charged like any
    // other pipeline materialisation.
    serde::Bytes damaged = payload.gather();
    damaged[fault.corrupt_offset % damaged.size()] ^= fault.corrupt_xor;
    auto& copies = telemetry::PipelineCounters::global();
    copies.charge(copies.chaos_corrupt, damaged.size());
    datagram.payload = serde::ByteChain(std::move(damaged));
    ++stats_.datagrams_corrupted;
  }
  if (fault.duplicate) {
    ++stats_.datagrams_duplicated;
    schedule_delivery(datagram, total + fault.duplicate_skew);
  }
  schedule_delivery(std::move(datagram), total);
}

void Network::schedule_delivery(Datagram datagram, sim::Duration delay) {
  simulator_.schedule_after(
      delay, [this, datagram = std::move(datagram)]() mutable {
        const auto it = bound_.find(datagram.destination);
        if (it == bound_.end() || !it->second->handler_) {
          ++stats_.datagrams_dropped_unbound;
          return;
        }
        ++stats_.datagrams_delivered;
        stats_.bytes_delivered += datagram.payload.size();
        it->second->handler_(datagram);
      });
}

}  // namespace collabqos::net
