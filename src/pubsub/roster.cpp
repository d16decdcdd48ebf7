#include "collabqos/pubsub/roster.hpp"

#include <stdexcept>

#include "collabqos/telemetry/pipeline.hpp"

namespace collabqos::pubsub::baseline {

namespace {
// Wire tags for the baseline's little control protocol.
constexpr std::uint8_t kRegister = 0xB1;
constexpr std::uint8_t kRosterUpdate = 0xB2;
constexpr std::uint8_t kData = 0xB3;
}  // namespace

void RosterEntry::encode(serde::Writer& w) const {
  w.string(name);
  w.u32(raw(address.node));
  w.u16(address.port);
  interest.encode(w);
}

Result<RosterEntry> RosterEntry::decode(serde::Reader& r) {
  RosterEntry entry;
  auto name = r.string();
  if (!name) return name.error();
  entry.name = std::move(name).take();
  auto node = r.u32();
  if (!node) return node.error();
  auto port = r.u16();
  if (!port) return port.error();
  entry.address = net::Address{net::make_node(node.value()), port.value()};
  auto interest = Selector::decode(r);
  if (!interest) return interest.error();
  entry.interest = std::move(interest).take();
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
  auto tag = r.u8();
  if (!tag || tag.value() != kRegister) return;
  auto entry = RosterEntry::decode(r);
  if (!entry) return;
  ++stats_.registrations;
  roster_[entry.value().name] = std::move(entry).take();
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
  auto tag = r.u8();
  if (!tag) return;
  if (tag.value() == kRosterUpdate) {
    auto count = r.varint();
    if (!count || count.value() > 65536) return;
    std::vector<RosterEntry> roster;
    roster.reserve(count.value());
    for (std::uint64_t i = 0; i < count.value(); ++i) {
      auto entry = RosterEntry::decode(r);
      if (!entry) return;  // drop corrupt updates whole
      roster.push_back(std::move(entry).take());
    }
    roster_ = std::move(roster);
    ++stats_.roster_updates;
    return;
  }
  if (tag.value() != kData) return;
  NamedMessage message;
  auto sender = r.string();
  if (!sender) return;
  message.sender = std::move(sender).take();
  auto content = AttributeSet::decode(r);
  if (!content) return;
  message.content = std::move(content).take();
  auto payload = r.blob();
  if (!payload) return;
  message.payload = std::move(payload).take();
  ++stats_.delivered;
  if (handler_) handler_(message);
}

}  // namespace collabqos::pubsub::baseline
