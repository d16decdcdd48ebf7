// Golden corpus for the wire formats: RTP datagrams, semantic messages
// and the selectors they carry, the NACK control datagram, a 3-fragment
// RTP object, and the serde records the layers above exchange (profiles,
// roster datagrams, media objects, operations, state entries and
// whiteboard strokes), and the BER-encoded SNMP messages: every PDU
// shape the manager, agents and trap sinks exchange, and hand-made
// hostile requests with what an agent counts for each. Every byte
// string, decode result and corrupt-input verdict below is pinned in
// tests/golden/wire.json, so a rewrite of the RTP receiver, the wire
// reader or any decoder must reproduce the recorded bytes and verdicts
// exactly.
//
//   wire_golden_test                    compare against the corpus
//   wire_golden_test --record <path>    rewrite the corpus
//
// Re-recording changes the behavioural contract: say why in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "collabqos/app/whiteboard.hpp"
#include "collabqos/core/concurrency.hpp"
#include "collabqos/core/events.hpp"
#include "collabqos/media/codec.hpp"
#include "collabqos/media/media_object.hpp"
#include "collabqos/media/sketch.hpp"
#include "collabqos/net/network.hpp"
#include "collabqos/net/rtp.hpp"
#include "collabqos/pubsub/message.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/pubsub/profile.hpp"
#include "collabqos/pubsub/roster.hpp"
#include "collabqos/pubsub/selector_cache.hpp"
#include "collabqos/snmp/agent.hpp"
#include "collabqos/snmp/ber.hpp"
#include "collabqos/snmp/pdu.hpp"
#include "collabqos/snmp/telemetry_mib.hpp"
#include "collabqos/snmp/value.hpp"
#include "collabqos/util/rng.hpp"
#include "support/golden_corpus.hpp"
#include "support/reference_ber.hpp"

namespace collabqos {
namespace {

using golden::chunked;
using golden::crc;
using golden::entry;
using golden::hex;
using golden::Line;
using golden::quoted_list;

std::string errc(Errc code) { return std::string(to_string(code)); }

// ------------------------------------------------------------ RTP packets

/// The two datagrams first pinned when the checksum became CRC-32C: an
/// empty payload and a 16-byte one at a wrapped-around sequence.
std::vector<std::pair<std::string, net::RtpPacket>> pinned_packets() {
  net::RtpPacket empty;
  empty.ssrc = 0x01020304;
  empty.sequence = 0x0506;
  empty.timestamp = 0x0708090A;
  empty.payload_type = 96;
  empty.fragment_index = 0;
  empty.fragment_count = 1;

  net::RtpPacket sixteen;
  sixteen.ssrc = 0xCAFEBABE;
  sixteen.sequence = 65534;
  sixteen.timestamp = 123456;
  sixteen.payload_type = 97;
  sixteen.fragment_index = 2;
  sixteen.fragment_count = 5;
  serde::Bytes payload(16);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  sixteen.payload = payload;
  return {{"empty", empty}, {"sixteen", sixteen}};
}

std::string packet_verdict(const serde::ByteChain& bytes) {
  auto decoded = net::RtpPacket::decode(bytes);
  if (!decoded) return errc(decoded.code());
  const net::RtpPacket& p = decoded.value();
  return "ok:" + std::to_string(p.ssrc) + "/" + std::to_string(p.sequence) +
         "/" + std::to_string(p.timestamp) + "/" +
         std::to_string(p.payload_type) + "/" +
         std::to_string(p.fragment_index) + "of" +
         std::to_string(p.fragment_count) + "/" + hex(p.payload.span());
}

std::string packet_verdict(const serde::Bytes& bytes) {
  return packet_verdict(serde::ByteChain(bytes));
}

std::vector<Line> packet_lines() {
  std::vector<Line> lines;
  for (const auto& [name, packet] : pinned_packets()) {
    const serde::Bytes wire = packet.wire().gather();
    lines.push_back(entry("rtp " + name,
                          "{\"hex\": \"" + hex(wire) + "\", \"decode\": \"" +
                              packet_verdict(wire) + "\"}"));
  }
  return lines;
}

// -------------------------------------------------------------- selectors

/// Every selector shape the encoders send: the always-true default (chat
/// posts, storm bulk objects, alerts), chatter's eight audiences, and
/// chatter's cache-busting `<audience> and not (uniq == N)` conjunct.
std::vector<pubsub::Selector> selector_shapes() {
  std::vector<pubsub::Selector> shapes;
  shapes.push_back(pubsub::Selector());
  for (const char* text :
       {"role == 'medic'", "role == 'fire'", "role in ('police', 'command')",
        "zone <= 2", "zone == 3 or role == 'command'",
        "not (role == 'fire') and zone >= 2", "exists role",
        "role == 'medic' or zone == 1"}) {
    shapes.push_back(pubsub::Selector::parse(text).value());
  }
  shapes.push_back(shapes[3].and_with(
      pubsub::Selector::equals("uniq", static_cast<std::int64_t>(4097))
          .negate()));
  return shapes;
}

std::vector<Line> selector_lines() {
  std::vector<Line> lines;
  for (const pubsub::Selector& selector : selector_shapes()) {
    serde::Writer w;
    selector.encode(w);
    lines.push_back(entry("selector " + selector.to_string(),
                          "\"" + hex(w.bytes()) + "\""));
  }
  return lines;
}

// --------------------------------------------------------------- messages

/// One message per event type chatter and storm send, built the way
/// their encoders build them.
std::vector<std::pair<std::string, pubsub::SemanticMessage>> messages() {
  std::vector<std::pair<std::string, pubsub::SemanticMessage>> out;
  const auto shapes = selector_shapes();
  {
    // Chat post: CollaborationClient::publish_operation via ChatArea.
    core::Operation op;
    op.object_id = "chat.room";
    op.lamport = 12;
    op.peer = 3;
    op.kind = "chat.post";
    serde::Writer text;
    text.string("c17 triage sector north hydrant ambulance status");
    op.payload = std::move(text).take();
    pubsub::SemanticMessage m;
    m.event_type = std::string(core::events::kOperation);
    m.payload = serde::ByteChain(op.encode());
    m.content.set("op.kind", op.kind);
    m.content.set("object.id", op.object_id);
    m.sender_id = 3;
    m.sequence = 12;
    out.emplace_back("chat.post", std::move(m));
  }
  const auto note = [&](const pubsub::Selector& selector) {
    // Chatter note: CollaborationClient::share_media of a text object.
    pubsub::SemanticMessage m;
    m.selector = selector;
    m.content.set("topic", "note");
    m.content.set("media.modality", "text");
    m.content.set("object.id", "o41");
    m.event_type = std::string(core::events::kMedia);
    m.payload = serde::ByteChain(
        media::MediaObject(media::TextMedia{
                               "status clear units perimeter casualty route"})
            .encode());
    m.sender_id = 5;
    m.sequence = 40;
    return m;
  };
  out.emplace_back("note", note(shapes[1]));
  out.emplace_back("note unique", note(shapes.back()));
  {
    // The base station's downlink copy of a note for a thin client.
    pubsub::SemanticMessage m = note(shapes[4]);
    m.content.set("adapted.by", "base-station");
    m.sender_id = 900;
    m.sequence = 7;
    out.emplace_back("note downlink", std::move(m));
  }
  {
    // Storm bulk object (shortened; its shape is what is pinned).
    std::string text;
    Rng rng(5);
    while (text.size() < 600) {
      text += static_cast<char>('a' + rng.uniform_int(0, 25));
      if (rng.chance(0.15)) text += ' ';
    }
    text.resize(600);
    pubsub::SemanticMessage m;
    m.content.set("topic", "bulk");
    m.content.set("media.modality", "text");
    m.content.set("object.id", "o3");
    m.event_type = std::string(core::events::kMedia);
    m.payload = serde::ByteChain(
        media::MediaObject(media::TextMedia{std::move(text)}).encode());
    m.sender_id = 7;
    m.sequence = 1;
    out.emplace_back("bulk", std::move(m));
  }
  {
    // Storm SLO alert transition: AlertEngine's publish.
    pubsub::SemanticMessage m;
    m.event_type = std::string(core::events::kAlert);
    m.content.set("kind", "alert");
    m.content.set("severity", "critical");
    m.content.set("previous", "ok");
    m.content.set("rule", "rtp-loss");
    m.content.set("metric", "net.datagrams.dropped_loss");
    m.content.set("host", "local");
    m.content.set("value", 0.375);
    m.content.set("time.s", 12.5);
    m.sender_id = 11;
    m.sequence = 2;
    out.emplace_back("alert", std::move(m));
  }
  return out;
}

/// Decode verdict: the error code, or the CRC and size of the decoded
/// message's re-encoding (its canonical form). The cached-selector decode
/// the peers use must agree with the plain one.
std::string message_verdict(const serde::ByteChain& bytes) {
  auto plain = pubsub::SemanticMessage::decode(bytes);
  pubsub::SelectorCache cache;
  auto cached = pubsub::SemanticMessage::decode(bytes, cache);
  const auto describe = [](const Result<pubsub::SemanticMessage>& r) {
    if (!r) return errc(r.code());
    const serde::SharedBytes again = r.value().encode();
    return "ok:" + crc(again.span()) + ":" + std::to_string(again.size());
  };
  const std::string verdict = describe(plain);
  const std::string via_cache = describe(cached);
  return verdict == via_cache ? verdict : verdict + "!=" + via_cache;
}

std::vector<Line> message_lines() {
  std::vector<Line> lines;
  for (const auto& [name, message] : messages()) {
    const serde::SharedBytes encoded = message.encode();
    lines.push_back(entry(
        "message " + name,
        "{\"hex\": \"" + hex(encoded.span()) + "\", \"decode\": \"" +
            message_verdict(serde::ByteChain(encoded)) + "\"}"));
  }
  return lines;
}

// --------------------------------------------------- the 3-fragment object

constexpr std::uint32_t kBulkSsrc = 7;
constexpr std::size_t kBulkMtu = 256;
constexpr std::uint8_t kSemanticPayloadType = 96;

/// The bulk message as its sender's peer fragments it: three datagrams.
std::vector<serde::Bytes> bulk_datagrams() {
  const auto all = messages();
  const auto bulk = std::find_if(
      all.begin(), all.end(), [](const auto& m) { return m.first == "bulk"; });
  net::RtpPacketizer packetizer(kBulkSsrc, kBulkMtu);
  std::vector<serde::Bytes> out;
  for (const net::RtpPacket& p : packetizer.packetize_views(
           bulk->second.encode(), kSemanticPayloadType,
           static_cast<std::uint32_t>(bulk->second.sequence))) {
    out.push_back(p.wire().gather());
  }
  return out;
}

/// Feed datagrams to a fresh receiver at t = 0: each ingest status, then
/// what was delivered (and how the payload decodes), or what is pending.
std::string object_verdict(const std::vector<serde::Bytes>& datagrams) {
  net::RtpReceiver receiver;
  std::string verdict;
  std::string delivered;
  receiver.on_object([&](const net::RtpObject& object) {
    delivered += std::string(object.complete ? " complete:" : " partial:") +
                 std::to_string(object.fragments_received) + "/" +
                 std::to_string(object.fragment_count) + ":" +
                 message_verdict(object.payload_chain());
  });
  for (const serde::Bytes& d : datagrams) {
    const Status status =
        receiver.ingest(serde::ByteChain(d), sim::TimePoint{});
    verdict += (verdict.empty() ? "" : ",") +
               (status.ok() ? std::string("ok") : errc(status.code()));
  }
  verdict += delivered;
  for (const auto& s : receiver.pending_summaries(sim::TimePoint{})) {
    verdict += " pending:" + std::to_string(s.ssrc) + "/" +
               std::to_string(s.timestamp) + " missing";
    for (const std::uint16_t i : s.missing) {
      verdict += ' ';
      verdict += std::to_string(i);
    }
  }
  return verdict;
}

std::vector<Line> object_lines() {
  const std::vector<serde::Bytes> d = bulk_datagrams();
  std::vector<std::string> hexes;
  for (const auto& datagram : d) hexes.push_back(hex(datagram));
  return {
      entry("object3 datagrams", quoted_list(hexes)),
      entry("object3 in order", "\"" + object_verdict(d) + "\""),
      entry("object3 reversed",
            "\"" + object_verdict({d[2], d[1], d[0]}) + "\""),
      entry("object3 duplicated",
            "\"" + object_verdict({d[1], d[1], d[0], d[2], d[2]}) + "\""),
      entry("object3 middle lost", "\"" + object_verdict({d[0], d[2]}) + "\""),
  };
}

// ------------------------------------------------------------------ NACKs

constexpr net::GroupId kGroup = net::make_group(0xE0000001);

/// A sender peer that has published the bulk message, and a bare endpoint
/// that plays the part of a receiver (or of a sender) on the wire.
struct NackRig {
  NackRig() {
    pubsub::PeerOptions options;
    options.mtu_payload = kBulkMtu;
    sender = std::make_unique<pubsub::SemanticPeer>(
        network, network.add_node("sender"), kGroup, kBulkSsrc, options);
    // Off the group, so the bulk object reaches it only from the bare
    // endpoint, fragment 1 missing.
    pubsub::PeerOptions unicast_only;
    unicast_only.join_multicast = false;
    receiver = std::make_unique<pubsub::SemanticPeer>(
        network, network.add_node("receiver"), kGroup, 9, unicast_only);
    raw = network.bind(network.add_node("raw"), 7000).take();
    raw->on_receive([this](const net::Datagram& datagram) {
      heard.push_back(datagram.payload.gather());
    });
    const auto all = messages();
    for (const auto& [name, message] : all) {
      if (name == "bulk") (void)sender->publish(message);
    }
    simulator.run_until(simulator.now() + sim::Duration::millis(10));
  }

  /// The NACK the receiver peer sends when the bare endpoint delivers
  /// fragments 0 and 2 of the bulk object and never fragment 1.
  serde::Bytes captured_nack() {
    const auto d = bulk_datagrams();
    (void)raw->send(receiver->address(), serde::Bytes(d[0]));
    (void)raw->send(receiver->address(), serde::Bytes(d[2]));
    heard.clear();
    simulator.run_until(simulator.now() + sim::Duration::millis(400));
    return heard.empty() ? serde::Bytes{} : heard.front();
  }

  /// How the sender peer treats `nack` arriving from the bare endpoint.
  std::string serve(const serde::Bytes& nack) {
    const pubsub::PeerStats before = sender->stats();
    heard.clear();
    (void)raw->send(sender->address(), serde::Bytes(nack));
    simulator.run_until(simulator.now() + sim::Duration::millis(10));
    const pubsub::PeerStats after = sender->stats();
    if (after.undecodable != before.undecodable) return "undecodable";
    if (after.nacks_received == before.nacks_received) return "ignored";
    std::string out =
        "served:" +
        std::to_string(after.retransmissions - before.retransmissions);
    for (const auto& datagram : heard) out += ":" + crc(datagram);
    return out;
  }

  sim::Simulator simulator;
  net::Network network{simulator, 17};
  std::unique_ptr<pubsub::SemanticPeer> sender;
  std::unique_ptr<pubsub::SemanticPeer> receiver;
  std::unique_ptr<net::Endpoint> raw;
  std::vector<serde::Bytes> heard;
};

std::vector<Line> nack_lines() {
  NackRig rig;
  const serde::Bytes nack = rig.captured_nack();
  return {entry("nack", "{\"hex\": \"" + hex(nack) + "\", \"served\": \"" +
                            rig.serve(nack) + "\"}")};
}

// ---------------------------------------------------------- serde records

/// The decode verdict of a record that decoded: the CRC and size of its
/// re-encoding (its canonical form).
std::string reencoded(std::span<const std::uint8_t> again) {
  std::string out = "ok:";
  out += crc(again);
  out += ':';
  out += std::to_string(again.size());
  return out;
}

/// As reencoded(), plus how many input bytes a nested decode consumed.
std::string reencoded(std::span<const std::uint8_t> again,
                      std::size_t consumed) {
  std::string out = reencoded(again);
  out += '@';
  out += std::to_string(consumed);
  return out;
}

std::string profile_verdict(const serde::Bytes& bytes) {
  serde::Reader r(bytes);
  const pubsub::Profile profile = pubsub::Profile::decode(r);
  if (!r.ok()) return errc(r.error().code);
  serde::Writer w;
  profile.encode(w);
  return reencoded(w.bytes(), r.offset());
}

constexpr std::uint8_t kRosterRegister = 0xB1;
constexpr std::uint8_t kRosterUpdate = 0xB2;

/// The roster entries of a register (one entry) or roster-update (a
/// count, then the entries) datagram, decoded as the naming server and
/// its clients read them.
std::string roster_entries_verdict(const serde::Bytes& bytes) {
  serde::Reader r(bytes);
  const std::uint8_t tag = r.u8();
  const std::uint64_t count = tag == kRosterUpdate ? r.varint() : 1;
  if (!r.ok()) return errc(r.error().code);
  if (tag != kRosterUpdate && tag != kRosterRegister) return "foreign tag";
  serde::Writer w;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto entry = pubsub::baseline::RosterEntry::decode(r);
    if (!r.ok()) return errc(r.error().code);
    entry.encode(w);
  }
  return reencoded(w.bytes(), r.offset());
}

/// What a naming server and, separately, a named client count when the
/// datagram reaches them from the wire.
std::string roster_handler_verdict(const serde::Bytes& bytes) {
  const auto deliver = [&](auto make_target) {
    sim::Simulator simulator;
    net::Network network(simulator, 23);
    auto target = make_target(network);
    auto raw = network.bind(network.add_node("raw"), 7001).take();
    (void)raw->send(target->address(), serde::Bytes(bytes));
    simulator.run_until(simulator.now() + sim::Duration::millis(100));
    return target;
  };
  const auto server = deliver([](net::Network& network) {
    return std::make_unique<pubsub::baseline::NamingServer>(
        network, network.add_node("server"));
  });
  const auto client = deliver([](net::Network& network) {
    return std::make_unique<pubsub::baseline::NamedClient>(
        network, network.add_node("client"), "c0",
        net::Address{net::make_node(99), 7000});
  });
  std::string out = "registered:";
  out += std::to_string(server->stats().registrations);
  out += " updates:";
  out += std::to_string(client->stats().roster_updates);
  out += '/';
  out += std::to_string(client->known_roster_size());
  return out;
}

std::string roster_verdict(const serde::Bytes& bytes) {
  std::string out = roster_entries_verdict(bytes);
  out += '|';
  out += roster_handler_verdict(bytes);
  return out;
}

std::string media_verdict(const serde::Bytes& bytes) {
  auto object = media::MediaObject::decode(std::span<const std::uint8_t>(bytes));
  if (!object) return errc(object.code());
  return reencoded(object.value().encode());
}

std::string operation_verdict(const serde::Bytes& bytes) {
  auto op = core::Operation::decode(std::span<const std::uint8_t>(bytes));
  if (!op) return errc(op.code());
  return reencoded(op.value().encode());
}

std::string stroke_verdict(const serde::Bytes& bytes) {
  auto stroke = app::Stroke::decode(bytes);
  if (!stroke) return errc(stroke.code());
  return reencoded(stroke.value().encode());
}

struct Record {
  std::string name;
  serde::Bytes bytes;
  std::function<std::string(const serde::Bytes&)> verdict;
};

pubsub::baseline::RosterEntry roster_entry(const char* name,
                                           std::uint32_t node,
                                           const char* interest) {
  pubsub::baseline::RosterEntry entry;
  entry.name = name;
  entry.address = net::Address{net::make_node(node), 9};
  entry.interest = pubsub::Selector::parse(interest).value();
  return entry;
}

/// A 16x12 colour gradient: small, but every codec and sketch field is
/// present.
media::Image gradient_image() {
  media::Image image(16, 12, 3);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 16; ++x) {
      image.set(x, y, 0, static_cast<std::uint8_t>(x * 16));
      image.set(x, y, 1, static_cast<std::uint8_t>(y * 20));
      image.set(x, y, 2, static_cast<std::uint8_t>((x + y) * 9));
    }
  }
  return image;
}

/// One record of every serde shape the layers above the receive path
/// decode, built the way their encoders build them.
std::vector<Record> records() {
  std::vector<Record> out;
  {
    pubsub::Profile profile;
    profile.set("role", "medic");
    profile.set("zone", 2);
    profile.set("bandwidth.kbps", 256.5);
    profile.set("display.color", true);
    profile.set_interest(
        pubsub::Selector::parse(
            "media.modality in ('text', 'image') and topic == 'note'")
            .value());
    profile.add_capability({"format", "mpeg2", "jpeg"});
    profile.add_capability({"media.modality", "image", "sketch"});
    serde::Writer w;
    profile.encode(w);
    out.push_back({"profile", std::move(w).take(), profile_verdict});
  }
  {
    serde::Writer w;
    w.u8(kRosterRegister);
    roster_entry("medic-7", 77, "role == 'medic'").encode(w);
    out.push_back({"roster register", std::move(w).take(), roster_verdict});
  }
  {
    serde::Writer w;
    w.u8(kRosterUpdate);
    w.varint(2);
    roster_entry("fire-2", 78, "zone <= 2").encode(w);
    roster_entry("medic-7", 77, "role in ('medic', 'command')").encode(w);
    out.push_back({"roster update", std::move(w).take(), roster_verdict});
  }
  const media::Image image = gradient_image();
  out.push_back(
      {"media text",
       media::MediaObject(
           media::TextMedia{"status clear units perimeter casualty route"})
           .encode(),
       media_verdict});
  {
    media::SpeechMedia speech;
    for (int i = 0; i < 24; ++i) {
      speech.samples.push_back(static_cast<std::uint8_t>(i * 11));
    }
    speech.transcript = "units at the perimeter";
    speech.duration_seconds = 1.25;
    out.push_back({"media speech", media::MediaObject(speech).encode(),
                   media_verdict});
  }
  out.push_back({"media sketch",
                 media::MediaObject(media::SketchMedia{
                                        media::extract_sketch(image, "ramp")})
                     .encode(),
                 media_verdict});
  {
    media::CodecParams params;
    params.levels = 2;
    params.max_packets = 4;
    media::ImageMedia picture;
    picture.encoded = media::encode_progressive(image, params);
    picture.width = image.width();
    picture.height = image.height();
    picture.channels = image.channels();
    picture.description = "sector map";
    picture.sketch = media::extract_sketch(image, "sector map");
    out.push_back({"media image", media::MediaObject(picture).encode(),
                   media_verdict});
  }
  {
    core::Operation op;
    op.object_id = "chat.room";
    op.lamport = 12;
    op.peer = 3;
    op.kind = "chat.post";
    serde::Writer text;
    text.string("c17 triage sector north hydrant ambulance status");
    op.payload = std::move(text).take();
    out.push_back({"operation", op.encode(), operation_verdict});
  }
  {
    app::Stroke stroke;
    stroke.x0 = 1.5;
    stroke.y0 = 2.5;
    stroke.x1 = 30.25;
    stroke.y1 = 40.75;
    stroke.color = 0xFF3366CC;
    stroke.width = 2.0;
    out.push_back({"stroke", stroke.encode(), stroke_verdict});
  }
  return out;
}

std::vector<Line> record_lines() {
  std::vector<Line> lines;
  for (const Record& record : records()) {
    lines.push_back(entry("record " + record.name,
                          "{\"hex\": \"" + hex(record.bytes) +
                              "\", \"decode\": \"" +
                              record.verdict(record.bytes) + "\"}"));
  }
  return lines;
}

// -------------------------------------------------------------- mutations

/// Verdicts of seeded single-byte mutations and truncations of the parts
/// of one input (one part per datagram), through `verdict`.
std::vector<std::string> mutation_verdicts(
    const std::vector<serde::Bytes>& parts, std::uint64_t seed,
    int mutations, int truncations,
    const std::function<std::string(const std::vector<serde::Bytes>&)>&
        verdict) {
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  Rng rng(seed);
  std::vector<std::string> verdicts;
  for (int k = 0; k < mutations; ++k) {
    std::vector<serde::Bytes> mutated = parts;
    auto offset = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
    std::size_t part = 0;
    while (offset >= mutated[part].size()) offset -= mutated[part++].size();
    mutated[part][offset] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    verdicts.push_back(verdict(mutated));
  }
  for (int k = 0; k < truncations; ++k) {
    std::vector<serde::Bytes> truncated = parts;
    const auto part = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(parts.size()) - 1));
    truncated[part].resize(static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(truncated[part].size()) - 1)));
    verdicts.push_back(verdict(truncated));
  }
  return verdicts;
}

std::vector<Line> mutation_lines() {
  std::vector<Line> lines;
  const auto packets = pinned_packets();
  chunked(lines, "mutations rtp sixteen",
          mutation_verdicts(
              {packets[1].second.wire().gather()}, 31, 64, 16,
              [](const auto& p) { return packet_verdict(p[0]); }));
  std::uint64_t seed = 32;
  for (const auto& [name, message] : messages()) {
    const serde::SharedBytes encoded = message.encode();
    chunked(lines, "mutations message " + name,
            mutation_verdicts(
                {serde::Bytes(encoded.begin(), encoded.end())}, seed++, 96, 32,
                [](const auto& p) {
                  return message_verdict(serde::ByteChain(p[0]));
                }));
  }
  chunked(lines, "mutations object3",
          mutation_verdicts(bulk_datagrams(), 41, 64, 16, object_verdict));
  NackRig rig;
  const serde::Bytes nack = rig.captured_nack();
  chunked(lines, "mutations nack",
          mutation_verdicts({nack}, 42, 48, 16,
                            [&](const auto& p) { return rig.serve(p[0]); }));
  return lines;
}

std::vector<Line> record_mutation_lines() {
  std::vector<Line> lines;
  std::uint64_t seed = 50;
  for (const Record& record : records()) {
    // Seeds 57-63 mutated the serde form of the seven SNMP value types,
    // which went when BER became a value's only encoding.
    if (record.name == "operation") seed += 7;
    // The seed after the operation's mutated the state-repository entry,
    // which went with the repository.
    if (record.name == "stroke") ++seed;
    chunked(lines, "mutations record " + record.name,
            mutation_verdicts({record.bytes}, seed++, 48, 16,
                              [&](const auto& p) {
                                return record.verdict(p[0]);
                              }));
  }
  return lines;
}

// -------------------------------------------------------------- SNMP PDUs

/// Every field a decoded PDU carries, its values as the MIB prints them.
std::string describe(const snmp::Pdu& pdu) {
  std::string out = "ok:";
  out += snmp::to_string(pdu.type);
  out += ' ' + pdu.community + " #" + std::to_string(pdu.request_id) + ' ' +
         std::to_string(static_cast<int>(pdu.error_status)) + '/' +
         std::to_string(pdu.error_index);
  for (const snmp::VarBind& vb : pdu.bindings) {
    out += " | " + vb.oid.to_string() + " = " + vb.value.to_string();
  }
  return out;
}

std::string pdu_verdict(const serde::Bytes& bytes) {
  auto pdu = snmp::Pdu::decode(bytes);
  if (!pdu) return errc(pdu.code());
  return reencoded(pdu.value().encode());
}

std::string pdu_description(const serde::Bytes& bytes) {
  auto pdu = snmp::Pdu::decode(bytes);
  return pdu ? describe(pdu.value()) : errc(pdu.code());
}

/// An agent on a simulated node with a fixed MIB, reached from a bare
/// endpoint: what it answers to a request and what it counts.
struct AgentRig {
  explicit AgentRig(bool telemetry_mib = false) {
    const net::NodeId node = network.add_node("agent");
    agent = std::make_unique<snmp::Agent>(network, node, "public", "private");
    if (telemetry_mib) {
      // A registry of the shape the observatory walks: counters and
      // gauges, named by dotted families.
      registry.counter("net.datagrams.sent").add(48213);
      registry.counter("rtp.nacks.sent").add(17);
      registry.gauge("observatory.series").set(42.0);
      registry.counter("snmp.agent.requests").add(UINT32_MAX + 5ULL);
      registry.gauge("sim.queue.depth").set(3.6);
      snmp::install_telemetry_instrumentation(*agent, registry);
    } else {
      snmp::Mib& mib = agent->mib();
      mib.add_scalar(snmp::oids::sys_descr(),
                     snmp::Value::octets("collabqos workstation"));
      mib.add_scalar(snmp::oids::sys_uptime(), snmp::Value::timeticks(4200));
      mib.add_scalar(snmp::oids::sys_name(), snmp::Value::octets("ws1"),
                     snmp::Access::read_write);
      mib.add_scalar(snmp::oids::tassl_cpu_load(), snmp::Value::gauge(55));
      mib.add_scalar(snmp::oids::tassl_page_faults(), snmp::Value::gauge(72));
      mib.add_scalar(snmp::oids::tassl_free_memory(),
                     snmp::Value::integer(-1));
      mib.add_scalar(snmp::oids::tassl_bandwidth(),
                     snmp::Value::counter(10000));
    }
    raw = network.bind(network.add_node("manager"), 7002).take();
    raw->on_receive([this](const net::Datagram& datagram) {
      heard.push_back(datagram.payload.gather());
    });
  }

  /// The agent's reply to `request` (empty when it sends none).
  serde::Bytes exchange(const serde::Bytes& request) {
    heard.clear();
    (void)raw->send(agent->address(), serde::Bytes(request));
    simulator.run_until(simulator.now() + sim::Duration::millis(100));
    return heard.empty() ? serde::Bytes{} : heard.front();
  }

  /// What the agent counts for `request` arriving from the wire.
  std::string counts(const serde::Bytes& request) {
    const snmp::AgentStats before = agent->stats();
    (void)exchange(request);
    const snmp::AgentStats after = agent->stats();
    return "requests:" + std::to_string(after.requests - before.requests) +
           " malformed:" + std::to_string(after.malformed - before.malformed) +
           " responses:" + std::to_string(after.responses - before.responses);
  }

  sim::Simulator simulator;
  net::Network network{simulator, 29};
  telemetry::MetricsRegistry registry;
  std::unique_ptr<snmp::Agent> agent;
  std::unique_ptr<net::Endpoint> raw;
  std::vector<serde::Bytes> heard;
};

// Hand-built BER, so an input can break exactly one rule.

serde::Bytes join(std::initializer_list<serde::Bytes> parts) {
  serde::Bytes out;
  for (const serde::Bytes& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

serde::Bytes tlv(std::uint8_t tag, const serde::Bytes& content) {
  serde::Writer w;
  snmp::reference::write_tlv(w, tag, content);
  return std::move(w).take();
}

serde::Bytes ber_integer(std::int64_t v) {
  serde::Writer w;
  snmp::reference::write_integer(w, v);
  return std::move(w).take();
}

serde::Bytes ber_octets(std::string_view v) {
  serde::Writer w;
  snmp::reference::write_octet_string(w, v);
  return std::move(w).take();
}

serde::Bytes ber_oid(const snmp::Oid& oid) {
  serde::Writer w;
  (void)snmp::reference::write_oid(w, oid);
  return std::move(w).take();
}

const serde::Bytes kBerNull = {0x05, 0x00};

/// An SNMP message field by field. The defaults make a well-formed GET of
/// sysDescr.0; the `in_*` bytes are appended inside the first varbind,
/// the varbind list, the PDU and the message, `after` behind the message.
struct Message {
  serde::Bytes version = ber_integer(1);
  serde::Bytes community = ber_octets("public");
  std::uint8_t pdu_tag = snmp::ber::tags::kGetRequest;
  serde::Bytes request_id = ber_integer(77);
  serde::Bytes error_status = ber_integer(0);
  serde::Bytes error_index = ber_integer(0);
  std::vector<std::pair<serde::Bytes, serde::Bytes>> varbinds = {
      {ber_oid(snmp::oids::sys_descr()), kBerNull}};
  serde::Bytes in_varbind, in_list, in_pdu, in_message, after;

  [[nodiscard]] serde::Bytes bytes() const {
    serde::Bytes list;
    for (std::size_t i = 0; i < varbinds.size(); ++i) {
      const auto& [oid, value] = varbinds[i];
      const serde::Bytes vb = tlv(
          snmp::ber::tags::kSequence,
          join({oid, value, i == 0 ? in_varbind : serde::Bytes{}}));
      list.insert(list.end(), vb.begin(), vb.end());
    }
    const serde::Bytes varbind_list =
        tlv(snmp::ber::tags::kSequence, join({list, in_list}));
    const serde::Bytes pdu = tlv(
        pdu_tag,
        join({request_id, error_status, error_index, varbind_list, in_pdu}));
    return join({tlv(snmp::ber::tags::kSequence,
                     join({version, community, pdu, in_message})),
                 after});
  }
};

snmp::Pdu make_pdu(snmp::PduType type, std::string community,
                   std::uint32_t request_id,
                   std::vector<snmp::VarBind> bindings) {
  snmp::Pdu pdu;
  pdu.type = type;
  pdu.community = std::move(community);
  pdu.request_id = request_id;
  pdu.bindings = std::move(bindings);
  return pdu;
}

/// Every PDU shape the stack sends or must accept: the manager's requests,
/// the agent's responses (every value type, a GETBULK batch and the
/// telemetry walk the observatory ingests), a trap, long-form lengths and
/// the padded toy OID.
std::vector<std::pair<std::string, serde::Bytes>> snmp_pdus() {
  using snmp::PduType;
  using snmp::Value;
  namespace oids = snmp::oids;
  std::vector<std::pair<std::string, serde::Bytes>> out;
  out.emplace_back(
      "get", make_pdu(PduType::get, "public", 0x1234,
                      {{oids::sys_descr(), {}}, {oids::tassl_cpu_load(), {}}})
                 .encode());
  out.emplace_back("getnext", make_pdu(PduType::get_next, "public", 2,
                                       {{oids::tassl_root(), {}}})
                                  .encode());
  out.emplace_back(
      "set", make_pdu(PduType::set, "private", 3,
                      {{oids::sys_name(), Value::octets("ws2")},
                       {oids::tassl_free_memory(), Value::integer(300)}})
                 .encode());
  out.emplace_back(
      "response all types",
      make_pdu(PduType::response, "public", 4,
               {{oids::tassl_free_memory(), Value::integer(-123456)},
                {oids::tassl_cpu_load(), Value::integer(42)},
                {oids::tassl_page_faults(), Value::gauge(4000000000)},
                {oids::if_in_octets(), Value::counter(UINT64_MAX)},
                {oids::sys_uptime(), Value::timeticks(360000)},
                {oids::sys_descr(), Value::octets("community")},
                {oids::tassl_root().concat({7}),
                 Value::object_id(snmp::Oid{1, 3, 6, 1, 4, 1, 26510, 10,
                                            300000})},
                {oids::sys_name(), Value{}}})
          .encode());
  {
    // No encoder writes Counter32; a foreign agent may.
    serde::Writer value;
    snmp::reference::write_unsigned(value, snmp::ber::tags::kCounter32,
                              4000000000);
    Message m;
    m.pdu_tag = snmp::ber::tags::kResponse;
    m.request_id = ber_integer(5);
    m.varbinds = {{ber_oid(oids::if_in_octets()), value.bytes()}};
    out.emplace_back("response counter32", m.bytes());
  }
  out.emplace_back(
      "trap", make_pdu(PduType::trap, "public", 0,
                       {{oids::tassl_page_faults(), Value::gauge(72)}})
                  .encode());
  snmp::Pdu bulk =
      make_pdu(PduType::get_bulk, "public", 6, {{oids::tassl_root(), {}}});
  bulk.error_index = 16;  // max-repetitions
  out.emplace_back("getbulk request", bulk.encode());
  out.emplace_back("getbulk response", AgentRig().exchange(bulk.encode()));
  {
    snmp::Pdu walk = make_pdu(PduType::get_bulk, "public", 7,
                              {{oids::tassl_telemetry_root(), {}}});
    walk.error_index = 16;  // the sampler's default bulk_repetitions
    out.emplace_back("telemetry walk response",
                     AgentRig(true).exchange(walk.encode()));
  }
  out.emplace_back("long form 128",
                   make_pdu(PduType::response, "public", 8,
                            {{oids::sys_descr(),
                              Value::octets(std::string(140, 'x'))}})
                       .encode());
  out.emplace_back("long form 256",
                   make_pdu(PduType::response, "public", 9,
                            {{oids::sys_descr(),
                              Value::octets(std::string(300, 'y'))}})
                       .encode());
  out.emplace_back(
      "toy oid",
      make_pdu(PduType::get, "public", 10, {{snmp::Oid{9, 9, 9}, {}}})
          .encode());
  return out;
}

/// Hand-made hostile requests: each breaks one rule, or two where the
/// order in which the decoder finds the faults decides the verdict.
std::vector<std::pair<std::string, serde::Bytes>> snmp_hostile() {
  namespace tags = snmp::ber::tags;
  const Message ok;
  std::vector<std::pair<std::string, serde::Bytes>> out;
  const auto add = [&out](std::string name, const Message& m) {
    out.emplace_back(std::move(name), m.bytes());
  };
  out.emplace_back("indefinite length",
                   serde::Bytes{0x30, 0x80, 0x02, 0x01, 0x01, 0x00, 0x00});
  {
    serde::Bytes bytes = {0x30, 0x89};
    bytes.insert(bytes.end(), 9, 0x00);
    bytes.insert(bytes.end(), {0x02, 0x01, 0x01});
    out.emplace_back("nine-octet length", bytes);
  }
  {
    serde::Bytes bytes = ok.bytes();
    bytes[1] = static_cast<std::uint8_t>(bytes[1] + 4);
    out.emplace_back("length past the end", bytes);
  }
  Message m = ok;
  m.request_id = tlv(tags::kInteger, serde::Bytes(9, 0x01));
  add("nine-octet integer", m);
  m = ok;
  m.request_id = tlv(tags::kInteger, {});
  add("empty integer", m);
  const auto with_oid = [&](std::string name, serde::Bytes content) {
    Message bad = ok;
    bad.varbinds[0].first = tlv(tags::kOid, content);
    add(std::move(name), bad);
  };
  with_oid("arc overflow", {0x2B, 0x90, 0x80, 0x80, 0x80, 0x00});
  with_oid("six-byte arc", {0x2B, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01});
  with_oid("seven-byte arc",
           {0x2B, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01});
  with_oid("truncated arc", {0x2B, 0x06, 0x81});
  with_oid("empty oid", {});
  m = ok;
  m.pdu_tag = 0xA4;  // the SNMPv1 Trap-PDU
  add("unknown pdu tag", m);
  m = ok;
  m.varbinds[0].second = tlv(0x44, {0x01});  // Opaque
  add("unknown value tag", m);
  m = ok;
  m.varbinds[0].second = tlv(tags::kNull, {0x00});
  add("null with content", m);
  m = ok;
  m.after = {0x00};
  add("trailing after message", m);
  m = ok;
  m.in_message = ber_integer(0);
  add("trailing in message", m);
  m = ok;
  m.in_pdu = ber_integer(0);
  add("trailing in pdu", m);
  m = ok;
  m.in_list = kBerNull;
  add("trailing in varbind list", m);
  m = ok;
  m.in_varbind = kBerNull;
  add("trailing in varbind", m);
  m = ok;
  m.varbinds.assign(64, ok.varbinds[0]);
  add("64 varbinds", m);
  m.varbinds.push_back(ok.varbinds[0]);
  add("65 varbinds", m);
  m = ok;
  m.version = ber_integer(0);
  add("v1 version", m);
  m.after = {0x00};
  add("v1 version, trailing after message", m);
  m = ok;
  m.version = ber_integer(0);
  m.request_id = tlv(tags::kInteger, serde::Bytes(9, 0x01));
  add("v1 version, nine-octet integer", m);
  m.request_id = ok.request_id;
  m.pdu_tag = 0xA4;
  add("v1 version, unknown pdu tag", m);
  m = ok;
  m.version = ber_integer(3);
  add("v3 version", m);
  m = ok;
  m.version = tlv(tags::kInteger, serde::Bytes(9, 0x00));
  add("nine-octet version", m);
  m = ok;
  m.version = ber_octets("1");
  add("version as octets", m);
  m = ok;
  m.community = ber_integer(5);
  add("community as integer", m);
  m = ok;
  m.error_index = ber_integer(-1);
  add("negative error index", m);
  m = ok;
  m.error_status = ber_integer(7);
  add("error status 7 on get", m);
  m.pdu_tag = tags::kGetBulkRequest;
  m.error_index = ber_integer(3);
  add("error status 7 on getbulk", m);
  m.error_status = ber_integer(-1);
  add("negative error status on getbulk", m);
  return out;
}

std::vector<Line> snmp_pdu_lines() {
  std::vector<Line> lines;
  for (const auto& [name, bytes] : snmp_pdus()) {
    lines.push_back(entry("snmp pdu " + name,
                          "{\"hex\": \"" + hex(bytes) + "\", \"decode\": \"" +
                              pdu_description(bytes) + "\"}"));
  }
  return lines;
}

std::vector<Line> snmp_mutation_lines() {
  std::vector<Line> lines;
  std::uint64_t seed = 70;
  for (const auto& [name, bytes] : snmp_pdus()) {
    chunked(lines, "mutations snmp pdu " + name,
            mutation_verdicts({bytes}, seed++, 48, 16, [](const auto& p) {
              return pdu_verdict(p[0]);
            }));
  }
  return lines;
}

std::vector<Line> snmp_hostile_lines() {
  AgentRig rig;
  std::vector<Line> lines;
  for (const auto& [name, bytes] : snmp_hostile()) {
    lines.push_back(entry("snmp hostile " + name,
                          "{\"hex\": \"" + hex(bytes) + "\", \"decode\": \"" +
                              pdu_description(bytes) + "\", \"agent\": \"" +
                              rig.counts(bytes) + "\"}"));
  }
  return lines;
}

// ----------------------------------------------------------------- corpus

/// Corpus groups, in file order. Each is checked by its own test.
std::vector<Line> group(int index) {
  switch (index) {
    case 0: return packet_lines();
    case 1: return selector_lines();
    case 2: return message_lines();
    case 3: return object_lines();
    case 4: return nack_lines();
    case 5: return mutation_lines();
    case 6: return record_lines();
    case 7: return record_mutation_lines();
    case 8: return snmp_pdu_lines();
    case 9: return snmp_mutation_lines();
    default: return snmp_hostile_lines();
  }
}
constexpr int kGroups = 11;

std::string render_corpus() {
  std::string out = "{\n\"format\": \"collabqos wire golden v1\"";
  for (int g = 0; g < kGroups; ++g) {
    for (const Line& line : group(g)) out += ",\n" + line;
  }
  return out + "\n}\n";
}

std::vector<std::pair<std::string, std::string>> recorded_lines() {
  return golden::recorded_lines(COLLABQOS_GOLDEN_DIR "/wire.json");
}

void expect_group_matches(int index) {
  const auto recorded = recorded_lines();
  ASSERT_FALSE(recorded.empty())
      << "missing " COLLABQOS_GOLDEN_DIR "/wire.json";
  for (const Line& line : group(index)) {
    const std::string key = line.substr(1, line.find('"', 1) - 1);
    const auto it = std::find_if(recorded.begin(), recorded.end(),
                                 [&](const auto& r) { return r.first == key; });
    ASSERT_NE(it, recorded.end()) << "no recorded entry for " << key;
    EXPECT_EQ(line, it->second) << "entry " << key << " changed";
  }
}

TEST(WireGolden, RtpDatagrams) { expect_group_matches(0); }
TEST(WireGolden, SelectorShapes) { expect_group_matches(1); }
TEST(WireGolden, SemanticMessages) { expect_group_matches(2); }
TEST(WireGolden, ThreeFragmentObject) { expect_group_matches(3); }
TEST(WireGolden, NackDatagram) { expect_group_matches(4); }
TEST(WireGolden, CorruptInputVerdicts) { expect_group_matches(5); }
TEST(WireGolden, SerdeRecords) { expect_group_matches(6); }
TEST(WireGolden, CorruptRecordVerdicts) { expect_group_matches(7); }
TEST(WireGolden, SnmpPdus) { expect_group_matches(8); }
TEST(WireGolden, CorruptSnmpVerdicts) { expect_group_matches(9); }
TEST(WireGolden, HostileSnmpRequests) { expect_group_matches(10); }

/// `bytes` cut at `cuts` (ascending, inside the input) into pieces that
/// each own a buffer, so that no two coalesce.
serde::ByteChain split(const serde::Bytes& bytes,
                       const std::vector<std::size_t>& cuts) {
  serde::ByteChain chain;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    const std::size_t end = i < cuts.size() ? cuts[i] : bytes.size();
    chain.append(serde::SharedBytes(
        serde::Bytes(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                     bytes.begin() + static_cast<std::ptrdiff_t>(end))));
    begin = end;
  }
  return chain;
}

// Every RTP datagram and semantic message of the corpus, and seeded
// mutations and truncations of each, decode to the contiguous verdict
// from every 2-way split of their bytes and from seeded 3-way splits.
TEST(WireGolden, SliceSplitsGiveTheContiguousVerdict) {
  using Verdict = std::function<std::string(const serde::ByteChain&)>;
  const Verdict packet = [](const serde::ByteChain& c) {
    return packet_verdict(c);
  };
  const Verdict message = [](const serde::ByteChain& c) {
    return message_verdict(c);
  };
  std::vector<std::pair<serde::Bytes, Verdict>> inputs;
  for (const auto& named : pinned_packets()) {
    inputs.emplace_back(named.second.wire().gather(), packet);
  }
  for (serde::Bytes& d : bulk_datagrams()) inputs.emplace_back(d, packet);
  for (const auto& named : messages()) {
    const serde::SharedBytes encoded = named.second.encode();
    inputs.emplace_back(serde::Bytes(encoded.begin(), encoded.end()),
                        message);
  }
  Rng rng(61);
  const std::size_t corpus = inputs.size();
  for (std::size_t i = 0; i < corpus; ++i) {
    for (int k = 0; k < 24; ++k) {
      serde::Bytes variant = inputs[i].first;
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(variant.size()) - 1));
      if (k < 16) {
        variant[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      } else {
        variant.resize(at);
      }
      inputs.emplace_back(std::move(variant), inputs[i].second);
    }
  }
  std::size_t checked = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& [bytes, verdict] = inputs[i];
    if (bytes.size() < 3) continue;
    const std::string whole = verdict(serde::ByteChain(bytes));
    const auto last = static_cast<std::int64_t>(bytes.size()) - 1;
    std::vector<std::vector<std::size_t>> splits;
    if (i < corpus) {
      for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        splits.push_back({cut});
      }
    } else {
      for (int k = 0; k < 8; ++k) {
        splits.push_back({static_cast<std::size_t>(rng.uniform_int(1, last))});
      }
    }
    for (int k = 0; k < (i < corpus ? 64 : 8); ++k) {
      auto a = static_cast<std::size_t>(rng.uniform_int(1, last - 1));
      auto b = static_cast<std::size_t>(rng.uniform_int(1, last));
      if (a > b) std::swap(a, b);
      if (a == b) ++b;
      splits.push_back({a, b});
    }
    for (const auto& cuts : splits) {
      const serde::ByteChain chain = split(bytes, cuts);
      ASSERT_EQ(chain.slices().size(), cuts.size() + 1);
      ASSERT_EQ(verdict(chain), whole)
          << "input " << i << " (" << hex(bytes) << ") cut at " << cuts[0]
          << " and " << (cuts.size() > 1 ? cuts[1] : cuts[0]);
      ++checked;
    }
  }
  EXPECT_GT(checked, 5000u);
}

/// Offsets of the first length octet of every TLV in `bytes`, down to the
/// first TLV that does not fit.
void length_offsets(std::span<const std::uint8_t> bytes, std::size_t base,
                    std::vector<std::size_t>& out) {
  std::size_t at = 0;
  while (at + 1 < bytes.size()) {
    const std::uint8_t tag = bytes[at];
    std::size_t length = bytes[at + 1];
    std::size_t header = 2;
    out.push_back(base + at + 1);
    if (length & 0x80) {
      const std::size_t count = length & 0x7F;
      if (count > 4 || at + 2 + count > bytes.size()) return;
      length = 0;
      for (std::size_t k = 0; k < count; ++k) {
        length = (length << 8) | bytes[at + 2 + k];
      }
      header += count;
    }
    if (length > bytes.size() - at - header) return;
    if (tag & 0x20) {  // constructed: SEQUENCE or a PDU
      length_offsets(bytes.subspan(at + header, length), base + at + header,
                     out);
    }
    at += header + length;
  }
}

// The decoder on serde::Reader gives the verdict and the PDU of the
// Result-per-step decoder it replaced, on seeded byte flips, insertions,
// deletions, truncations and rewritten length octets of every SNMP PDU
// and hostile request in the corpus.
TEST(PduDecode, MatchesReferenceOnSeededMutations) {
  std::vector<serde::Bytes> inputs;
  for (const auto& named : snmp_pdus()) inputs.push_back(named.second);
  for (const auto& named : snmp_hostile()) inputs.push_back(named.second);
  const std::size_t corpus = inputs.size();
  Rng rng(71);
  const auto at = [&rng](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  const auto byte = [&rng] {
    return static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  };
  for (std::size_t i = 0; i < corpus; ++i) {
    const serde::Bytes original = inputs[i];  // inputs grows below
    for (std::size_t cut = 0; cut < original.size(); ++cut) {
      inputs.emplace_back(original.begin(),
                          original.begin() + static_cast<std::ptrdiff_t>(cut));
    }
    for (int k = 0; k < 80; ++k) {
      serde::Bytes flipped = original;
      flipped[at(flipped.size())] ^=
          static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      inputs.push_back(std::move(flipped));
    }
    for (int k = 0; k < 32; ++k) {
      serde::Bytes inserted = original;
      inserted.insert(inserted.begin() + static_cast<std::ptrdiff_t>(
                                             at(inserted.size() + 1)),
                      byte());
      inputs.push_back(std::move(inserted));
      serde::Bytes deleted = original;
      deleted.erase(deleted.begin() +
                    static_cast<std::ptrdiff_t>(at(deleted.size())));
      inputs.push_back(std::move(deleted));
    }
    std::vector<std::size_t> lengths;
    length_offsets(original, 0, lengths);
    for (int k = 0; k < 32 && !lengths.empty(); ++k) {
      serde::Bytes rewritten = original;
      const std::size_t offset = lengths[at(lengths.size())];
      // A short form one off, or any first length octet at all.
      rewritten[offset] =
          k % 2 == 0 ? static_cast<std::uint8_t>(rewritten[offset] +
                                                 (k % 4 == 0 ? 1 : -1))
                     : byte();
      inputs.push_back(std::move(rewritten));
    }
  }
  std::size_t ok = 0;
  std::size_t malformed = 0;
  std::size_t unsupported = 0;
  for (const serde::Bytes& input : inputs) {
    const auto ours = snmp::Pdu::decode(input);
    const auto theirs = snmp::reference::decode(input);
    ASSERT_EQ(ours.code(), theirs.code()) << hex(input);
    if (!ours) {
      (ours.code() == Errc::unsupported ? unsupported : malformed) += 1;
      continue;
    }
    ++ok;
    const snmp::Pdu& a = ours.value();
    const snmp::Pdu& b = theirs.value();
    ASSERT_EQ(a.type, b.type) << hex(input);
    ASSERT_EQ(a.community, b.community) << hex(input);
    ASSERT_EQ(a.request_id, b.request_id) << hex(input);
    ASSERT_EQ(a.error_status, b.error_status) << hex(input);
    ASSERT_EQ(a.error_index, b.error_index) << hex(input);
    ASSERT_EQ(a.bindings, b.bindings) << hex(input);
  }
  EXPECT_GT(ok, 500u);
  EXPECT_GT(malformed, 10000u);
  EXPECT_GT(unsupported, 400u);
}

TEST(WireGolden, CorpusHasNoStaleEntries) {
  std::size_t expected = 1;  // the format line
  for (int g = 0; g < kGroups; ++g) expected += group(g).size();
  const auto recorded = recorded_lines();
  EXPECT_EQ(recorded.size(), expected);
  std::vector<std::string> keys;
  for (const auto& r : recorded) keys.push_back(r.first);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

}  // namespace
}  // namespace collabqos

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--record") {
    std::ofstream out(argv[2], std::ios::binary);
    out << collabqos::render_corpus();
    return out.good() ? 0 : 1;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
