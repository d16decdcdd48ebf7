#include "collabqos/pubsub/peer.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "collabqos/telemetry/pipeline.hpp"
#include "collabqos/telemetry/trace.hpp"

namespace collabqos::pubsub {

namespace {
constexpr std::uint8_t kSemanticPayloadType = 96;  // dynamic RTP PT range
constexpr std::uint8_t kNackMagic = 0xA8;          // distinct from RTP 0xA7
/// A partial object is delivered (and dropped as incomplete) this long
/// after its last fragment arrived; NACKs go out at half of it.
constexpr sim::Duration kReassemblyFlush = sim::Duration::millis(250);
/// Reassembly memory bound under sustained loss (see
/// net::RtpReceiver::Options::pending_byte_budget): 8 MiB comfortably
/// holds dozens of in-flight maximum-size objects.
constexpr std::size_t kReassemblyByteBudget = 8 * 1024 * 1024;

std::string_view verdict_name(MatchDecision::Kind kind) noexcept {
  switch (kind) {
    case MatchDecision::Kind::rejected: return "rejected";
    case MatchDecision::Kind::accepted: return "accepted";
    case MatchDecision::Kind::accepted_with_transformation:
      return "accepted_with_transformation";
  }
  return "?";
}

serde::Bytes encode_nack(std::uint32_t ssrc, std::uint32_t timestamp,
                         const std::vector<std::uint16_t>& missing) {
  serde::Writer w(8 + missing.size() * 2);
  w.u8(kNackMagic);
  w.u32(ssrc);
  w.u32(timestamp);
  w.varint(missing.size());
  for (const std::uint16_t index : missing) w.u16(index);
  return std::move(w).take();
}
}  // namespace

SemanticPeer::SemanticPeer(net::Network& network, net::NodeId node,
                           net::GroupId group, std::uint64_t peer_id,
                           PeerOptions options)
    : network_(network),
      group_(group),
      peer_id_(peer_id),
      options_(options),
      packetizer_(static_cast<std::uint32_t>(peer_id), options.mtu_payload),
      receiver_(net::RtpReceiver::Options{kReassemblyFlush,
                                          kReassemblyByteBudget}),
      sent_(kRetransmitBufferPackets) {
  auto endpoint = network.bind(node, options.port);
  if (!endpoint) {
    throw std::runtime_error("SemanticPeer: cannot bind: " +
                             endpoint.error().message);
  }
  endpoint_ = std::move(endpoint).take();
  if (options.join_multicast) {
    if (auto status = endpoint_->join(group); !status.ok()) {
      throw std::runtime_error("SemanticPeer: cannot join group: " +
                               status.error().message);
    }
  }
  stats_.attach(telemetry::MetricsRegistry::global());
  endpoint_->on_receive(
      [this](const net::Datagram& datagram) { on_datagram(datagram); });
  receiver_.on_object(
      [this](const net::RtpObject& object) { on_object(object); });
  // The repair/flush timer runs only while partial objects are pending,
  // so an idle peer schedules no events (simulations can drain fully).
  // It ticks at half the flush window: missing fragments get NACKed (and
  // the object touched) before the partial-delivery deadline.
  flush_timer_ = std::make_unique<sim::PeriodicTimer>(
      network.simulator(), kReassemblyFlush * 0.5,
      [this] { repair_tick(); });
}

SemanticPeer::~SemanticPeer() = default;

Status SemanticPeer::transmit(
    const SemanticMessage& message, std::uint32_t transport_timestamp,
    const std::function<Status(serde::ByteChain)>& sink) {
  if (message.selector.depth() > Selector::kMaxDepth) {
    return Status(Errc::out_of_range,
                  "selector deeper than any receiver decodes");
  }
  auto& copies = telemetry::PipelineCounters::global();
  const std::uint64_t copied_before = copies.total.value();
  const serde::SharedBytes encoded = message.encode();
  if (packetizer_.fragments_for(encoded.size()) >
      net::RtpPacketizer::kMaxFragments) {
    return Status(Errc::resource_limit,
                  "message needs more RTP fragments than one object may span");
  }
  const auto packets =
      packetizer_.packetize_views(encoded, kSemanticPayloadType,
                                  transport_timestamp);
  if (auto& tracer = telemetry::Tracer::global(); tracer.enabled()) {
    telemetry::Span span;
    span.trace_id =
        telemetry::make_trace_id(packetizer_.ssrc(), transport_timestamp);
    span.name = "rtp.fragment";
    span.actor = peer_id_;
    span.start = span.end = network_.simulator().now();
    span.tags.emplace_back("fragments", std::to_string(packets.size()));
    span.tags.emplace_back("bytes", std::to_string(encoded.size()));
    span.tags.emplace_back(
        "bytes_copied", std::to_string(copies.total.value() - copied_before));
    tracer.record(std::move(span));
  }
  for (const net::RtpPacket& packet : packets) {
    sent_.remember(packet);
    if (auto status = sink(packet.wire()); !status.ok()) return status;
  }
  ++stats_.published;
  return {};
}

Status SemanticPeer::publish(SemanticMessage message) {
  message.sender_id = peer_id_;
  message.sequence = next_sequence_++;
  if (auto& tracer = telemetry::Tracer::global(); tracer.enabled()) {
    telemetry::Span span;
    span.trace_id = telemetry::make_trace_id(
        packetizer_.ssrc(), static_cast<std::uint32_t>(message.sequence));
    span.name = "pubsub.publish";
    span.actor = peer_id_;
    span.start = span.end = network_.simulator().now();
    span.tags.emplace_back("event_type", message.event_type);
    tracer.record(std::move(span));
  }
  return transmit(message, static_cast<std::uint32_t>(message.sequence),
                  [this](serde::ByteChain bytes) {
    return endpoint_->send_multicast(group_, std::move(bytes));
  });
}

Status SemanticPeer::send_to(net::Address destination,
                             SemanticMessage message) {
  message.sender_id = peer_id_;
  message.sequence = next_sequence_++;
  return transmit(message, static_cast<std::uint32_t>(message.sequence),
                  [this, destination](serde::ByteChain bytes) {
                    return endpoint_->send(destination, std::move(bytes));
                  });
}

Status SemanticPeer::relay_to(net::Address destination,
                              const SemanticMessage& message) {
  // The transport timestamp comes from this peer's own sequence space so
  // replays of different senders' messages never collide in reassembly.
  return transmit(message, static_cast<std::uint32_t>(next_sequence_++),
                  [this, destination](serde::ByteChain bytes) {
                    return endpoint_->send(destination, std::move(bytes));
                  });
}

void SemanticPeer::on_datagram(const net::Datagram& datagram) {
  if (!datagram.payload.empty() && datagram.payload[0] == kNackMagic) {
    handle_nack(datagram);
    return;
  }
  auto decoded = net::RtpPacket::decode(datagram.payload);
  if (!decoded) {
    ++stats_.undecodable;
    return;
  }
  const net::RtpPacket& packet = decoded.value();
  if (auto& tracer = telemetry::Tracer::global(); tracer.enabled()) {
    telemetry::Span span;
    span.trace_id = telemetry::make_trace_id(packet.ssrc, packet.timestamp);
    span.name = "net.transit";
    span.actor = peer_id_;
    span.start = datagram.sent_at;
    span.end = network_.simulator().now();
    span.tags.emplace_back("bytes", std::to_string(datagram.payload.size()));
    span.tags.emplace_back("fragment", std::to_string(packet.fragment_index));
    tracer.record(std::move(span));
  }
  const std::uint32_t ssrc = packet.ssrc;
  const std::uint32_t timestamp = packet.timestamp;
  const std::uint64_t key = net::RtpReceiver::object_key(ssrc, timestamp);
  // A one-fragment object resolves inside ingest and never needs repair,
  // so only multi-fragment objects (or a packet colliding with a pending
  // one) record their source. Recorded BEFORE ingest: on_object erases
  // the entry when the object resolves, including within this very call.
  const bool tracked =
      packet.fragment_count > 1 || receiver_.is_pending(ssrc, timestamp);
  if (tracked) arq_.try_emplace(key).first->source = datagram.source;
  const Status status =
      receiver_.ingest(std::move(decoded).take(), network_.simulator().now());
  if (!status.ok()) {
    ++stats_.undecodable;
  }
  if (tracked && !receiver_.is_pending(ssrc, timestamp)) {
    // Rejected, duplicate-of-completed, or resolved within this call.
    arq_.erase(key);
  }
  if (receiver_.pending_objects() > 0) {
    flush_timer_->start();  // no-op when already running
  }
}

void SemanticPeer::repair_tick() {
  const sim::TimePoint now = network_.simulator().now();
  if (options_.nack_attempts > 0) {
    const sim::Duration nack_after = kReassemblyFlush * 0.5;
    for (const auto& summary : receiver_.pending_summaries(now)) {
      if (summary.age < nack_after || summary.missing.empty()) continue;
      ArqState* arq = arq_.find(
          net::RtpReceiver::object_key(summary.ssrc, summary.timestamp));
      if (arq == nullptr || arq->nacks_sent >= options_.nack_attempts) {
        continue;  // out of attempts: flush_stale will deliver partial
      }
      ++arq->nacks_sent;
      ++stats_.nacks_sent;
      (void)endpoint_->send(
          arq->source,
          encode_nack(summary.ssrc, summary.timestamp, summary.missing));
      // Grant the retransmissions a fresh flush window.
      receiver_.touch(summary.ssrc, summary.timestamp, now);
    }
  }
  (void)receiver_.flush_stale(now);
  if (receiver_.pending_objects() == 0) flush_timer_->stop();
}

void SemanticPeer::handle_nack(const net::Datagram& datagram) {
  // NACKs are single-buffer control datagrams, so this flatten is free;
  // a pathological multi-slice one gathers (charged).
  const serde::SharedBytes flat = telemetry::flatten_counted(
      datagram.payload, telemetry::PipelineCounters::global().gather);
  serde::Reader r(flat);
  (void)r.u8();  // magic, already checked
  const std::uint32_t ssrc = r.u32();
  const std::uint32_t timestamp = r.u32();
  const std::uint64_t count = r.varint();
  if (!r.ok() || count > UINT16_MAX) {
    ++stats_.undecodable;
    return;
  }
  if (ssrc != packetizer_.ssrc()) return;  // not our stream
  ++stats_.nacks_received;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint16_t index = r.u16();
    if (!r.ok()) return;
    const net::RtpPacket* sent = sent_.find(timestamp, index);
    if (sent == nullptr) continue;  // evicted; nothing to do
    ++stats_.retransmissions;
    (void)endpoint_->send(datagram.source, sent->wire());
  }
}

void SemanticPeer::on_object(const net::RtpObject& object) {
  const auto heard = std::lower_bound(heard_senders_.begin(),
                                      heard_senders_.end(), object.ssrc);
  if (heard == heard_senders_.end() || *heard != object.ssrc) {
    heard_senders_.insert(heard, object.ssrc);
  }
  arq_.erase(net::RtpReceiver::object_key(object.ssrc, object.timestamp));
  if (!object.complete) {
    // A partial semantic message cannot be decoded; the QoS layer
    // controls partial *media* delivery at a higher level.
    ++stats_.incomplete_dropped;
    return;
  }
  ++stats_.received_objects;
  auto& tracer = telemetry::Tracer::global();
  const bool tracing = tracer.enabled();
  const std::uint64_t trace_id =
      telemetry::make_trace_id(object.ssrc, object.timestamp);
  auto& copies = telemetry::PipelineCounters::global();
  const std::uint64_t copied_before = copies.total.value();
  const serde::ByteChain bytes = object.payload_chain();
  const std::uint64_t cache_hits_before =
      tracing ? selector_cache_.stats().hits : 0;
  auto decoded = SemanticMessage::decode(bytes, selector_cache_);
  if (tracing) {
    telemetry::Span span;
    span.trace_id = trace_id;
    span.name = "rtp.reassemble";
    span.actor = peer_id_;
    span.start = object.first_fragment_at;
    span.end = network_.simulator().now();
    span.tags.emplace_back("fragments",
                           std::to_string(object.fragment_count));
    // Bytes materialised turning this object's fragments into a decoded
    // message — 0 when the views coalesced (the zero-copy fast path).
    span.tags.emplace_back(
        "bytes_copied", std::to_string(copies.total.value() - copied_before));
    tracer.record(std::move(span));
  }
  if (!decoded) {
    ++stats_.undecodable;
    return;
  }
  const SemanticMessage& message = decoded.value();
  MatchDecision decision;
  std::int64_t match_ns = -1;
  if (options_.promiscuous) {
    decision.kind = MatchDecision::Kind::accepted;
    ++stats_.accepted;
  } else if (tracing) {
    // Wall-clock VM time is measured only while tracing: the span tag is
    // diagnostic, and a steady_clock read per message is not free.
    const auto wall_start = std::chrono::steady_clock::now();
    decision = match(profile_, message);
    match_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - wall_start)
                   .count();
  } else {
    decision = match(profile_, message);
  }
  if (tracing) {
    telemetry::Span span;
    span.trace_id = trace_id;
    span.name = "pubsub.match";
    span.actor = peer_id_;
    span.start = span.end = network_.simulator().now();
    span.tags.emplace_back(
        "cache",
        selector_cache_.stats().hits > cache_hits_before ? "hit" : "miss");
    span.tags.emplace_back("verdict", std::string(verdict_name(decision.kind)));
    if (options_.promiscuous) span.tags.emplace_back("promiscuous", "1");
    if (match_ns >= 0) {
      span.tags.emplace_back("match_ns", std::to_string(match_ns));
    }
    tracer.record(std::move(span));
  }
  if (options_.promiscuous) {
    if (handler_) handler_(message, decision);
    return;
  }
  switch (decision.kind) {
    case MatchDecision::Kind::rejected:
      ++stats_.rejected;
      return;
    case MatchDecision::Kind::accepted:
      ++stats_.accepted;
      break;
    case MatchDecision::Kind::accepted_with_transformation:
      ++stats_.accepted_with_transformation;
      break;
  }
  if (handler_) handler_(message, decision);
}

}  // namespace collabqos::pubsub
