#include "collabqos/pubsub/roster.hpp"

#include <algorithm>
#include <stdexcept>

#include "collabqos/telemetry/pipeline.hpp"

namespace collabqos::pubsub::baseline {

namespace {
// Wire tags for the baseline's little control protocol.
constexpr std::uint8_t kRegister = 0xB1;
constexpr std::uint8_t kRosterUpdate = 0xB2;
constexpr std::uint8_t kData = 0xB3;
/// The smallest encoded RosterEntry: an empty name's length byte, the
/// node (4 bytes), the port (2) and a one-byte selector.
constexpr std::size_t kMinEntryBytes = 8;
}  // namespace

void RosterEntry::encode(serde::Writer& w) const {
  w.string(name);
  w.u32(raw(address.node));
  w.u16(address.port);
  interest.encode(w);
}

RosterEntry RosterEntry::decode(serde::Reader& r) {
  RosterEntry entry;
  entry.name = r.view_string();
  const std::uint32_t node = r.u32();
  const std::uint16_t port = r.u16();
  entry.address = net::Address{net::make_node(node), port};
  entry.interest = Selector::decode(r);
  return entry;
}

// ------------------------------------------------------------ NamingServer

NamingServer::NamingServer(net::Network& network, net::NodeId node)
    : network_(network) {
  auto endpoint = network.bind(node, kPort);
  if (!endpoint) {
    throw std::runtime_error("NamingServer: cannot bind: " +
                             endpoint.error().message);
  }
  endpoint_ = std::move(endpoint).take();
  stats_.attach(telemetry::MetricsRegistry::global());
  endpoint_->on_receive(
      [this](const net::Datagram& datagram) { handle(datagram); });
}

void NamingServer::handle(const net::Datagram& datagram) {
  const serde::SharedBytes flat = telemetry::flatten_counted(
      datagram.payload, telemetry::PipelineCounters::global().gather);
  serde::Reader r(flat);
  if (r.u8() != kRegister) return;
  RosterEntry entry = RosterEntry::decode(r);
  if (!r.ok()) return;
  ++stats_.registrations;
  roster_[entry.name] = std::move(entry);
  broadcast_roster();
}

void NamingServer::broadcast_roster() {
  serde::Writer w;
  w.u8(kRosterUpdate);
  w.varint(roster_.size());
  for (const auto& [name, entry] : roster_) entry.encode(w);
  const serde::SharedBytes bytes = std::move(w).take();
  // Full roster to every registered client — the synchronization cost
  // the paper calls out grows quadratically with membership. (One encode,
  // one buffer: each push shares it.)
  for (const auto& [name, entry] : roster_) {
    ++stats_.roster_pushes;
    stats_.roster_bytes += bytes.size();
    (void)endpoint_->send(entry.address, bytes);
  }
}

// ------------------------------------------------------------- NamedClient

NamedClient::NamedClient(net::Network& network, net::NodeId node,
                         std::string name, net::Address server)
    : network_(network), name_(std::move(name)), server_(server) {
  auto endpoint = network.bind(node);
  if (!endpoint) {
    throw std::runtime_error("NamedClient: cannot bind: " +
                             endpoint.error().message);
  }
  endpoint_ = std::move(endpoint).take();
  stats_.attach(telemetry::MetricsRegistry::global());
  endpoint_->on_receive(
      [this](const net::Datagram& datagram) { handle(datagram); });
}

Status NamedClient::register_interest(Selector interest) {
  serde::Writer w;
  w.u8(kRegister);
  RosterEntry self;
  self.name = name_;
  self.address = endpoint_->address();
  self.interest = std::move(interest);
  self.encode(w);
  return endpoint_->send(server_, std::move(w).take());
}

Status NamedClient::publish(AttributeSet content, serde::Bytes payload) {
  serde::Writer w;
  w.u8(kData);
  w.string(name_);
  content.encode(w);
  w.blob(payload);
  const serde::SharedBytes bytes = std::move(w).take();
  for (const RosterEntry& entry : roster_) {
    if (entry.name == name_) continue;
    if (!entry.interest.matches(content)) continue;
    ++stats_.sent_unicasts;
    stats_.sent_bytes += bytes.size();
    if (auto status = endpoint_->send(entry.address, bytes); !status.ok()) {
      return status;
    }
  }
  return {};
}

void NamedClient::handle(const net::Datagram& datagram) {
  const serde::SharedBytes flat = telemetry::flatten_counted(
      datagram.payload, telemetry::PipelineCounters::global().gather);
  serde::Reader r(flat);
  const std::uint8_t tag = r.u8();
  if (tag == kRosterUpdate) {
    const std::uint64_t count = r.varint();
    if (!r.ok() || count > 65536) return;
    // An entry takes at least kMinEntryBytes, so the input present bounds
    // the reservation, whatever count the datagram claims.
    std::vector<RosterEntry> roster;
    roster.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, r.remaining() / kMinEntryBytes)));
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      roster.push_back(RosterEntry::decode(r));
    }
    if (!r.ok()) return;  // drop corrupt updates whole
    roster_ = std::move(roster);
    ++stats_.roster_updates;
    return;
  }
  if (tag != kData) return;
  NamedMessage message;
  message.sender = r.view_string();
  message.content = AttributeSet::decode(r);
  message.payload = r.blob();
  if (!r.ok()) return;
  ++stats_.delivered;
  if (handler_) handler_(message);
}

}  // namespace collabqos::pubsub::baseline
