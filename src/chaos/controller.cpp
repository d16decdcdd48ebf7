#include "collabqos/chaos/controller.hpp"

#include <algorithm>

#include "collabqos/util/hash.hpp"

namespace collabqos::chaos {

ChaosController::ChaosController(net::Network& network, std::uint64_t seed)
    : network_(network), seed_(seed) {
  network_.set_fault_hook(
      [this](net::Address source, net::Address destination,
             std::size_t payload_bytes) {
        return on_datagram(source, destination, payload_bytes);
      });
  stats_.attach(telemetry::MetricsRegistry::global());
}

ChaosController::~ChaosController() {
  // Restore any link snapshots still held (untimed faults, or teardown
  // mid-window) so the network is left the way we found it.
  for (auto& [id, fault] : active_) {
    for (const auto& [node, params] : fault->saved_links) {
      (void)network_.set_link_params(node, params);
    }
  }
  network_.set_fault_hook(nullptr);
}

void ChaosController::register_target(std::string name,
                                      TargetHandler handler) {
  targets_[std::move(name)] = std::move(handler);
}

void ChaosController::arm(const ChaosSchedule& schedule) {
  sim::Simulator& simulator = network_.simulator();
  const sim::TimePoint base = simulator.now();
  for (const ChaosEvent& event : schedule.events()) {
    const std::uint64_t index = next_index_++;
    simulator.schedule_at(base + event.at, [this, event, index] {
      inject(event, index);
    });
  }
}

void ChaosController::inject(const ChaosEvent& event, std::uint64_t index) {
  const std::uint64_t id = next_id_++;
  auto fault = std::make_unique<Active>(
      event, Rng(derive_seed(seed_, index, event.seed)));

  // Resolve schedule names against the live network. Unknown names are
  // counted (the resilience report prints the count), never fatal: a
  // schedule written for a larger topology still injects what it can.
  const auto resolve = [this](const std::vector<std::string>& names,
                              std::set<net::NodeId>& out) {
    for (const std::string& name : names) {
      if (const auto node = network_.find_node(name); node.ok()) {
        out.insert(node.value());
      } else {
        ++stats_.unresolved_names;
      }
    }
  };

  switch (event.kind) {
    case FaultKind::outage:
    case FaultKind::crash:
      dispatch_target(event, true);
      break;
    case FaultKind::burst_loss:
    case FaultKind::iid_loss: {
      resolve(event.nodes, fault->nodes);
      for (const net::NodeId node : fault->nodes) {
        auto params = network_.link_params(node);
        if (!params.ok()) continue;
        fault->saved_links.emplace_back(node, params.value());
        net::LinkParams faulty = params.value();
        if (event.kind == FaultKind::burst_loss) {
          faulty.burst.enabled = true;
          faulty.burst.p_good_to_bad = event.p_good_to_bad;
          faulty.burst.p_bad_to_good = event.p_bad_to_good;
          faulty.burst.loss_good = event.loss_good;
          faulty.burst.loss_bad = event.loss_bad;
        } else {
          faulty.loss_probability = event.p;
        }
        (void)network_.set_link_params(node, faulty);
      }
      break;
    }
    case FaultKind::partition:
    case FaultKind::reorder:
    case FaultKind::duplicate:
    case FaultKind::corrupt:
      resolve(event.nodes, fault->nodes);
      resolve(event.peers, fault->peers);
      fault->all_nodes = event.nodes.empty();
      break;
  }

  ++stats_.faults_injected;
  if (event.timed()) {
    network_.simulator().schedule_after(event.duration,
                                        [this, id] { clear(id); });
  }
  active_.emplace(id, std::move(fault));
}

void ChaosController::clear(std::uint64_t id) {
  const auto it = active_.find(id);
  if (it == active_.end()) return;
  Active& fault = *it->second;
  for (const auto& [node, params] : fault.saved_links) {
    (void)network_.set_link_params(node, params);
  }
  if (fault.event.kind == FaultKind::outage ||
      fault.event.kind == FaultKind::crash) {
    dispatch_target(fault.event, false);
  }
  ++stats_.faults_cleared;
  active_.erase(it);
}

void ChaosController::dispatch_target(const ChaosEvent& event, bool active) {
  for (const std::string& name : event.nodes) {
    const auto it = targets_.find(name);
    if (it == targets_.end()) {
      ++stats_.unresolved_names;
      continue;
    }
    it->second(event, active);
  }
}

bool ChaosController::covers(const Active& fault, net::NodeId src,
                             net::NodeId dst) noexcept {
  return fault.all_nodes || fault.nodes.contains(src) ||
         fault.nodes.contains(dst);
}

net::FaultDecision ChaosController::on_datagram(net::Address source,
                                                net::Address destination,
                                                std::size_t payload_bytes) {
  net::FaultDecision decision;
  for (auto& [id, fault_ptr] : active_) {
    Active& fault = *fault_ptr;
    switch (fault.event.kind) {
      case FaultKind::partition: {
        // Crossing traffic dies in both directions. An empty peers= set
        // means "nodes vs everyone else".
        const bool src_in = fault.nodes.contains(source.node);
        const bool dst_in = fault.nodes.contains(destination.node);
        const bool crossing =
            fault.peers.empty()
                ? src_in != dst_in
                : (src_in && fault.peers.contains(destination.node)) ||
                      (dst_in && fault.peers.contains(source.node));
        if (crossing) {
          ++stats_.datagrams_dropped;
          decision.drop = true;
          // A dropped datagram can't be delayed, duplicated or
          // corrupted; later faults would burn RNG draws on a ghost.
          return decision;
        }
        break;
      }
      case FaultKind::reorder:
        if (covers(fault, source.node, destination.node) &&
            fault.rng.chance(fault.event.p)) {
          decision.extra_delay =
              decision.extra_delay +
              sim::Duration::micros(fault.rng.uniform_int(
                  0, std::max<std::int64_t>(
                         1, fault.event.delay.as_micros())));
          ++stats_.datagrams_delayed;
        }
        break;
      case FaultKind::duplicate:
        if (covers(fault, source.node, destination.node) &&
            fault.rng.chance(fault.event.p)) {
          decision.duplicate = true;
          decision.duplicate_skew = sim::Duration::micros(
              fault.rng.uniform_int(
                  0,
                  std::max<std::int64_t>(1, fault.event.skew.as_micros())));
          ++stats_.datagrams_duplicated;
        }
        break;
      case FaultKind::corrupt:
        if (payload_bytes > 0 &&
            covers(fault, source.node, destination.node) &&
            fault.rng.chance(fault.event.p)) {
          decision.corrupt = true;
          decision.corrupt_offset = static_cast<std::size_t>(
              fault.rng.uniform_int(
                  0, static_cast<std::int64_t>(payload_bytes) - 1));
          // A single flipped bit: the smallest damage a checksum must
          // still catch.
          decision.corrupt_xor = static_cast<std::uint8_t>(
              1u << fault.rng.uniform_int(0, 7));
          ++stats_.datagrams_corrupted;
        }
        break;
      case FaultKind::burst_loss:
      case FaultKind::iid_loss:
      case FaultKind::outage:
      case FaultKind::crash:
        break;  // not hook-mediated
    }
  }
  return decision;
}

}  // namespace collabqos::chaos
