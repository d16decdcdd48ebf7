// Golden corpus for the wire formats: RTP datagrams, semantic messages
// and the selectors they carry, the NACK control datagram, a 3-fragment
// RTP object, and the serde records the layers above exchange (profiles,
// roster datagrams, media objects, SNMP values, operations, state entries
// and whiteboard strokes). Every byte string, decode result and
// corrupt-input verdict below is pinned in tests/golden/wire.json, so a
// rewrite of the RTP receiver, the wire reader or any decoder must
// reproduce the recorded bytes and verdicts exactly.
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
#include "collabqos/core/state_repo.hpp"
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
#include "collabqos/snmp/value.hpp"
#include "collabqos/util/rng.hpp"
#include "support/golden_corpus.hpp"

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

std::string snmp_value_verdict(const serde::Bytes& bytes) {
  serde::Reader r(bytes);
  const snmp::Value value = snmp::Value::decode(r);
  if (!r.ok()) return errc(r.error().code);
  serde::Writer w;
  value.encode(w);
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

std::string state_entry_verdict(const serde::Bytes& bytes) {
  auto entry = core::StateEntry::decode(std::span<const std::uint8_t>(bytes));
  if (!entry) return errc(entry.code());
  return reencoded(entry.value().encode());
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
  const std::pair<const char*, snmp::Value> values[] = {
      {"integer", snmp::Value::integer(-123456)},
      {"gauge", snmp::Value::gauge(99)},
      {"counter", snmp::Value::counter(UINT64_MAX)},
      {"timeticks", snmp::Value::timeticks(360000)},
      {"octets", snmp::Value::octets("community")},
      {"object id", snmp::Value::object_id(snmp::Oid{1, 3, 6, 1, 4, 1,
                                                     26510, 10, 300000})},
      {"null", snmp::Value{}},
  };
  for (const auto& [name, value] : values) {
    serde::Writer w;
    value.encode(w);
    out.push_back({std::string("snmp ") + name, std::move(w).take(),
                   snmp_value_verdict});
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
    core::StateEntry entry;
    entry.object_id = "map.sector";
    entry.object_type = "map";
    entry.version = 4;
    entry.editor = 2;
    entry.state = {1, 2, 3, 5, 8, 13, 21, 34};
    out.push_back({"state entry", entry.encode(), state_entry_verdict});
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
    chunked(lines, "mutations record " + record.name,
            mutation_verdicts({record.bytes}, seed++, 48, 16,
                              [&](const auto& p) {
                                return record.verdict(p[0]);
                              }));
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
    default: return record_mutation_lines();
  }
}
constexpr int kGroups = 8;

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
