#include "collabqos/net/rtp.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <utility>

#include "collabqos/telemetry/pipeline.hpp"
#include "collabqos/util/crc32c.hpp"

namespace collabqos::net {

namespace {
// Wire-format magic to reject non-RTP datagrams early.
constexpr std::uint8_t kMagic = 0xA7;

/// Signed distance from `a` to `b` on the 16-bit sequence circle.
int seq_distance(std::uint16_t a, std::uint16_t b) noexcept {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(b - a));
}

/// Writes `value` as 8 little-endian bytes, whatever the host's order.
void put_le64(std::uint8_t* out, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// CRC-32C over every header field plus the payload bytes. Covers what
/// UDP/IP checksums would in a real stack: a chaos-plane bit flip
/// anywhere in the datagram fails verification at decode.
std::uint32_t packet_checksum(const RtpPacket& p,
                              std::span<const std::uint8_t> payload) {
  std::array<std::uint8_t, 24> fields{};
  put_le64(fields.data(), p.ssrc);
  put_le64(fields.data() + 8,
           (static_cast<std::uint64_t>(p.sequence) << 32) | p.timestamp);
  put_le64(fields.data() + 16,
           (static_cast<std::uint64_t>(p.payload_type) << 32) |
               (static_cast<std::uint64_t>(p.fragment_index) << 16) |
               p.fragment_count);
  Crc32c crc;
  crc.update(fields);
  crc.update(payload);
  return crc.value();
}

/// Cold-path counter for checksum rejects (the hot path never sees one).
void count_corrupt_detected() {
  static telemetry::Counter& detected =
      telemetry::MetricsRegistry::global().counter("rtp.corrupt_detected");
  ++detected;
}

serde::Bytes encode_header(const RtpPacket& p) {
  serde::Writer w(28);
  w.u8(kMagic);
  w.u32(p.ssrc);
  w.u16(p.sequence);
  w.u32(p.timestamp);
  w.u8(p.payload_type);
  w.u16(p.fragment_index);
  w.u16(p.fragment_count);
  w.u32(packet_checksum(p, p.payload.span()));
  w.varint(p.payload.size());  // blob length prefix; bytes follow as a view
  return std::move(w).take();
}

}  // namespace

serde::ByteChain RtpPacket::wire() const {
  serde::ByteChain chain(serde::SharedBytes(encode_header(*this)));
  chain.append(payload);
  return chain;
}

Result<RtpPacket> RtpPacket::decode(const serde::ByteChain& bytes) {
  serde::Reader r(bytes);
  RtpPacket p;
  if (r.u8() != kMagic) r.fail(Errc::malformed, "not an RTP packet");
  p.ssrc = r.u32();
  p.sequence = r.u16();
  p.timestamp = r.u32();
  p.payload_type = r.u8();
  p.fragment_index = r.u16();
  p.fragment_count = r.u16();
  if (p.fragment_count == 0 || p.fragment_index >= p.fragment_count) {
    r.fail(Errc::malformed, "bad fragment fields");
  }
  const std::uint32_t checksum = r.u32();
  // A packet's wire form is [header][payload view], so the view is one
  // slice as sent and nothing is copied; a payload split across slices
  // gathers here, charged.
  const serde::ByteChain view = r.view_blob();
  if (!r.ok()) return r.error();
  p.payload = telemetry::flatten_counted(
      view, telemetry::PipelineCounters::global().packet_decode);
  if (!r.exhausted()) {
    return Error{Errc::malformed, "trailing bytes after RTP payload"};
  }
  if (checksum != packet_checksum(p, p.payload.span())) {
    count_corrupt_detected();
    return Error{Errc::malformed, "RTP checksum mismatch"};
  }
  return p;
}

RtpPacketizer::RtpPacketizer(std::uint32_t ssrc,
                             std::size_t mtu_payload) noexcept
    : ssrc_(ssrc), mtu_payload_(std::max<std::size_t>(1, mtu_payload)) {}

std::vector<RtpPacket> RtpPacketizer::packetize_views(
    const serde::SharedBytes& object, std::uint8_t payload_type,
    std::uint32_t timestamp) {
  const std::size_t count = fragments_for(object.size());
  assert(count <= kMaxFragments);
  std::vector<RtpPacket> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RtpPacket p;
    p.ssrc = ssrc_;
    p.sequence = sequence_++;
    p.timestamp = timestamp;
    p.payload_type = payload_type;
    p.fragment_index = static_cast<std::uint16_t>(i);
    p.fragment_count = static_cast<std::uint16_t>(count);
    p.payload = object.slice(i * mtu_payload_, mtu_payload_);
    packets.push_back(std::move(p));
  }
  return packets;
}

serde::ByteChain RtpObject::payload_chain() const {
  serde::ByteChain chain;
  for (const auto& f : fragments) chain.append(f);
  return chain;
}

RtpReceiver::RtpReceiver(Options options) : options_(options) {
  auto& registry = telemetry::MetricsRegistry::global();
  counters_.attach(registry);
  pending_bytes_registration_ =
      registry.attach("rtp.reassembly.pending_bytes", pending_bytes_gauge_);
}

Status RtpReceiver::ingest(const serde::ByteChain& bytes, sim::TimePoint now) {
  auto decoded = RtpPacket::decode(bytes);
  if (!decoded) return decoded.error();
  return ingest(std::move(decoded).take(), now);
}

Status RtpReceiver::ingest(RtpPacket packet, sim::TimePoint now) {
  update_stats(*sources_.try_emplace(packet.ssrc).first, packet, now);

  const std::uint64_t key = object_key(packet.ssrc, packet.timestamp);
  if (completed_.contains(key)) {
    return {};  // late duplicate of a delivered object; absorb
  }
  PendingObject* pending = pending_.find(key);
  if (pending != nullptr &&
      pending->object.fragment_count != packet.fragment_count) {
    return Status(Errc::malformed, "fragment count mismatch within object");
  }
  // Checked before any entry exists, so a bad packet leaves nothing behind.
  if (packet.fragment_index >= packet.fragment_count) {
    return Status(Errc::malformed, "fragment index out of range");
  }
  if (pending == nullptr) {
    if (packet.fragment_count == 1) {
      deliver_single(packet, now);
      remember_completed(key);
      return {};
    }
    pending = pending_.try_emplace(key).first;
    pending->object.ssrc = packet.ssrc;
    pending->object.timestamp = packet.timestamp;
    pending->object.payload_type = packet.payload_type;
    pending->object.fragment_count = packet.fragment_count;
    pending->object.fragments.resize(packet.fragment_count);
    pending->received.assign(packet.fragment_count, false);
    pending->object.first_fragment_at = now;
  }
  if (pending->received[packet.fragment_index]) {
    return {};  // duplicate fragment; absorb silently
  }
  pending->received[packet.fragment_index] = true;
  const std::size_t fragment_bytes = packet.payload.size();
  pending->object.fragments[packet.fragment_index] = std::move(packet.payload);
  ++pending->object.fragments_received;
  pending->stored_bytes += fragment_bytes;
  pending_bytes_ += fragment_bytes;
  pending_bytes_gauge_.set(static_cast<double>(pending_bytes_));
  pending->last_update = now;

  if (pending->object.fragments_received == pending->object.fragment_count) {
    PendingObject complete = std::move(*pending);
    pending_.erase(key);
    complete.object.complete = true;
    forget_bytes(complete);
    deliver(complete);
    remember_completed(key);
  } else {
    enforce_budget();
  }
  return {};
}

void RtpReceiver::deliver_single(RtpPacket& packet, sim::TimePoint now) {
  RtpObject fresh;  // only for a callback that re-enters ingest
  RtpObject& object = single_busy_ ? fresh : single_;
  object.ssrc = packet.ssrc;
  object.timestamp = packet.timestamp;
  object.payload_type = packet.payload_type;
  object.fragments_received = 1;
  object.fragment_count = 1;
  object.complete = true;
  object.first_fragment_at = now;
  object.fragments.resize(1);  // allocates once for single_
  object.fragments[0] = std::move(packet.payload);
  const bool was_busy = std::exchange(single_busy_, true);
  if (handler_) handler_(object);
  single_busy_ = was_busy;
  object.fragments[0] = serde::SharedBytes();  // release the datagram
}

void RtpReceiver::forget_bytes(const PendingObject& pending) noexcept {
  pending_bytes_ -= pending.stored_bytes;
  pending_bytes_gauge_.set(static_cast<double>(pending_bytes_));
}

bool RtpReceiver::flush(std::uint64_t key) {
  PendingObject* pending = pending_.find(key);
  if (pending == nullptr) return false;  // resolved by a re-entrant ingest
  PendingObject flushed = std::move(*pending);
  pending_.erase(key);
  forget_bytes(flushed);
  deliver(flushed);
  return true;
}

void RtpReceiver::enforce_budget() {
  if (options_.pending_byte_budget == 0) return;
  while (pending_bytes_ > options_.pending_byte_budget && !pending_.empty()) {
    // Stalest first: the object whose repair is least likely to still be
    // in flight gives up its bytes (delivered partial, like flush_stale;
    // ties break on the lowest key, deterministically).
    std::uint64_t victim = 0;
    const PendingObject* stalest = nullptr;
    pending_.for_each([&](std::uint64_t key, const PendingObject& p) {
      if (stalest == nullptr || p.last_update < stalest->last_update ||
          (p.last_update == stalest->last_update && key < victim)) {
        stalest = &p;
        victim = key;
      }
    });
    flush(victim);
    ++counters_.evicted;
  }
}

void RtpReceiver::remember_completed(std::uint64_t key) {
  if (completed_.contains(key)) return;
  if (completed_ring_.size() < kCompletedMemory) {
    completed_ring_.push_back(key);
  } else {
    // Full: the oldest key leaves before the newest enters, so the set
    // never holds more than kCompletedMemory keys.
    completed_.erase(completed_ring_[completed_next_]);
    completed_ring_[completed_next_] = key;
    completed_next_ = (completed_next_ + 1) % kCompletedMemory;
  }
  completed_.try_emplace(key);
}

void RtpReceiver::update_stats(SourceState& state, const RtpPacket& packet,
                               sim::TimePoint now) {
  if (!state.seen) {
    state.seen = true;
    state.base_sequence = packet.sequence;
    state.highest_extended = packet.sequence;
    state.interval_expected_base = packet.sequence;
  } else {
    const int distance = seq_distance(
        static_cast<std::uint16_t>(state.highest_extended & 0xffff),
        packet.sequence);
    if (distance > 0) {
      state.highest_extended += static_cast<std::uint32_t>(distance);
    }
  }
  ++state.packets_received;
  ++state.interval_received;

  // RFC 3550 interarrival jitter: smooth |delta arrival - delta media time|.
  // Our media clock is the object timestamp in milliseconds.
  if (state.have_arrival) {
    const double arrival_delta_us =
        static_cast<double>((now - state.last_arrival).as_micros());
    const double media_delta_us =
        (static_cast<double>(packet.timestamp) -
         static_cast<double>(state.last_rtp_timestamp)) *
        1000.0;
    const double d = std::fabs(arrival_delta_us - media_delta_us);
    state.jitter_us += (d - state.jitter_us) / 16.0;
  }
  state.have_arrival = true;
  state.last_arrival = now;
  state.last_rtp_timestamp = packet.timestamp;
}

void RtpReceiver::deliver(PendingObject& pending) {
  if (handler_) handler_(pending.object);
}

std::vector<RtpReceiver::PendingSummary> RtpReceiver::pending_summaries(
    sim::TimePoint now) const {
  std::vector<std::uint64_t> keys;
  pending_.sorted_keys(keys);
  std::vector<PendingSummary> summaries;
  summaries.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    const PendingObject& pending = *pending_.find(key);
    PendingSummary summary;
    summary.ssrc = pending.object.ssrc;
    summary.timestamp = pending.object.timestamp;
    summary.age = now - pending.last_update;
    for (std::size_t i = 0; i < pending.received.size(); ++i) {
      if (!pending.received[i]) {
        summary.missing.push_back(static_cast<std::uint16_t>(i));
      }
    }
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

void RtpReceiver::touch(std::uint32_t ssrc, std::uint32_t timestamp,
                        sim::TimePoint now) {
  if (PendingObject* pending = pending_.find(object_key(ssrc, timestamp))) {
    pending->last_update = now;
  }
}

std::size_t RtpReceiver::flush_stale(sim::TimePoint now) {
  pending_.sorted_keys(sweep_keys_);
  std::erase_if(sweep_keys_, [&](std::uint64_t key) {
    return now - pending_.find(key)->last_update < options_.flush_after;
  });
  std::size_t flushed = 0;
  for (const std::uint64_t key : sweep_keys_) flushed += flush(key) ? 1 : 0;
  return flushed;
}

Result<ReceiverReport> RtpReceiver::report(std::uint32_t ssrc) {
  SourceState* found = sources_.find(ssrc);
  if (found == nullptr) {
    return Error{Errc::no_such_object, "unknown ssrc"};
  }
  SourceState& state = *found;
  ReceiverReport rr;
  rr.ssrc = ssrc;
  rr.packets_received = state.packets_received;
  const std::uint32_t expected =
      state.highest_extended - state.base_sequence + 1;
  rr.packets_expected = expected;
  rr.cumulative_lost = static_cast<std::int64_t>(expected) -
                       static_cast<std::int64_t>(state.packets_received);
  const std::uint32_t interval_expected =
      state.highest_extended - state.interval_expected_base + 1;
  const std::int64_t interval_lost =
      static_cast<std::int64_t>(interval_expected) -
      static_cast<std::int64_t>(state.interval_received);
  rr.fraction_lost =
      interval_expected > 0
          ? std::max(0.0, static_cast<double>(interval_lost) /
                              static_cast<double>(interval_expected))
          : 0.0;
  rr.interarrival_jitter_us = state.jitter_us;
  rr.highest_sequence =
      static_cast<std::uint16_t>(state.highest_extended & 0xffff);
  // Reset interval accounting.
  state.interval_received = 0;
  state.interval_expected_base = state.highest_extended + 1;
  return rr;
}

}  // namespace collabqos::net
