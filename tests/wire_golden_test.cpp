// Golden corpus for the wire formats of the receive path: RTP datagrams,
// semantic messages and the selectors they carry, the NACK control
// datagram and a 3-fragment RTP object. Every byte string, decode result
// and corrupt-input verdict below is pinned in tests/golden/wire.json, so
// a rewrite of the RTP receiver, the message decoder or the selector
// codec must reproduce the recorded bytes and verdicts exactly.
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
#include <string>
#include <vector>

#include "collabqos/core/concurrency.hpp"
#include "collabqos/core/events.hpp"
#include "collabqos/media/media_object.hpp"
#include "collabqos/net/network.hpp"
#include "collabqos/net/rtp.hpp"
#include "collabqos/pubsub/message.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/pubsub/selector_cache.hpp"
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

std::string packet_verdict(const serde::Bytes& bytes) {
  auto decoded = net::RtpPacket::decode(serde::ByteChain(bytes));
  if (!decoded) return errc(decoded.code());
  const net::RtpPacket& p = decoded.value();
  return "ok:" + std::to_string(p.ssrc) + "/" + std::to_string(p.sequence) +
         "/" + std::to_string(p.timestamp) + "/" +
         std::to_string(p.payload_type) + "/" +
         std::to_string(p.fragment_index) + "of" +
         std::to_string(p.fragment_count) + "/" + hex(p.payload.span());
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
    for (const std::uint16_t i : s.missing) verdict += " " + std::to_string(i);
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

// ----------------------------------------------------------------- corpus

/// Corpus groups, in file order. Each is checked by its own test.
std::vector<Line> group(int index) {
  switch (index) {
    case 0: return packet_lines();
    case 1: return selector_lines();
    case 2: return message_lines();
    case 3: return object_lines();
    case 4: return nack_lines();
    default: return mutation_lines();
  }
}
constexpr int kGroups = 6;

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
