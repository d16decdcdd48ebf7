// Attribute sets, profiles, the Figure-3 semantic interpretation process,
// and the SemanticPeer substrate over the simulated network.
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "collabqos/pubsub/attribute.hpp"
#include "collabqos/pubsub/message.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/pubsub/profile.hpp"
#include "collabqos/pubsub/retransmit_buffer.hpp"
#include "collabqos/pubsub/selector_cache.hpp"
#include "collabqos/telemetry/metrics.hpp"
#include "collabqos/util/rng.hpp"

namespace collabqos::pubsub {
namespace {

// ------------------------------------------------------ retransmit buffer

/// The retransmit buffer as a tree plus a FIFO of keys: insert if absent,
/// then evict the oldest while over capacity.
class RetransmitModel {
 public:
  explicit RetransmitModel(std::size_t capacity) : capacity_(capacity) {}

  void remember(const net::RtpPacket& packet) {
    if (capacity_ == 0) return;
    const std::pair<std::uint32_t, std::uint16_t> key{packet.timestamp,
                                                      packet.fragment_index};
    if (packets_.emplace(key, packet).second) {
      order_.push_back(key);
      while (order_.size() > capacity_) {
        packets_.erase(order_.front());
        order_.pop_front();
      }
    }
  }
  [[nodiscard]] const net::RtpPacket* find(std::uint32_t timestamp,
                                           std::uint16_t fragment) const {
    const auto it = packets_.find({timestamp, fragment});
    return it == packets_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::size_t size() const { return packets_.size(); }

 private:
  std::size_t capacity_;
  std::map<std::pair<std::uint32_t, std::uint16_t>, net::RtpPacket> packets_;
  std::deque<std::pair<std::uint32_t, std::uint16_t>> order_;
};

TEST(RetransmitBuffer, MatchesMapAndDequeModel) {
  // Random sends (with resends of keys already held, which keep the first
  // copy) and NACK lookups over small key spaces, so that keys repeat,
  // wrap past eviction and come back. Each send carries a unique
  // sequence number, which tells the copies of one key apart.
  Rng rng(0x5E7D);
  std::uint16_t sequence = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (int round = 0; round < 200; ++round) {
    const auto capacity =
        static_cast<std::size_t>(rng.uniform_int(0, round % 4 == 0 ? 3 : 40));
    const std::int64_t timestamps = rng.uniform_int(1, 24);
    const std::int64_t fragments = rng.uniform_int(1, 12);
    RetransmitBuffer buffer(capacity);
    RetransmitModel model(capacity);
    for (int op = 0; op < 400; ++op) {
      const auto timestamp = static_cast<std::uint32_t>(
          rng.uniform_int(0, timestamps - 1) * 0x10001);
      const auto fragment =
          static_cast<std::uint16_t>(rng.uniform_int(0, fragments - 1));
      if (rng.chance(0.6)) {
        net::RtpPacket packet;
        packet.timestamp = timestamp;
        packet.fragment_index = fragment;
        packet.sequence = sequence++;
        buffer.remember(packet);
        model.remember(packet);
        ASSERT_EQ(buffer.size(), model.size());
        ASSERT_LE(buffer.size(), capacity);
      } else {
        const net::RtpPacket* got = buffer.find(timestamp, fragment);
        const net::RtpPacket* want = model.find(timestamp, fragment);
        ASSERT_EQ(got == nullptr, want == nullptr)
            << "round " << round << " op " << op;
        if (want == nullptr) {
          ++misses;
          continue;
        }
        ++hits;
        EXPECT_EQ(got->sequence, want->sequence);
        EXPECT_EQ(got->timestamp, timestamp);
        EXPECT_EQ(got->fragment_index, fragment);
      }
    }
  }
  // Both outcomes occur often enough to mean something.
  EXPECT_GT(hits, 5000u);
  EXPECT_GT(misses, 5000u);
}

// ------------------------------------------------------------ attributes

TEST(AttributeValue, TypedViews) {
  EXPECT_EQ(AttributeValue(5).as_number(), 5.0);
  EXPECT_EQ(AttributeValue(2.5).as_number(), 2.5);
  EXPECT_EQ(AttributeValue("s").as_string(), "s");
  EXPECT_FALSE(AttributeValue("s").as_number().has_value());
  EXPECT_FALSE(AttributeValue(true).as_number().has_value());
}

TEST(AttributeValue, EqualityWithNumericCoercion) {
  EXPECT_EQ(AttributeValue(5), AttributeValue(5.0));
  EXPECT_EQ(AttributeValue(5.0), AttributeValue(5));
  EXPECT_FALSE(AttributeValue(5) == AttributeValue(6.0));
  EXPECT_FALSE(AttributeValue(1) == AttributeValue(true));
  EXPECT_FALSE(AttributeValue("1") == AttributeValue(1));
  EXPECT_EQ(AttributeValue("x"), AttributeValue("x"));
}

TEST(AttributeValue, LiteralsReparse) {
  EXPECT_EQ(AttributeValue(true).to_literal(), "true");
  EXPECT_EQ(AttributeValue(42).to_literal(), "42");
  EXPECT_EQ(AttributeValue(2.5).to_literal(), "2.5");
  EXPECT_EQ(AttributeValue(2.0).to_literal(), "2.0");  // stays a real
  EXPECT_EQ(AttributeValue("a'b").to_literal(), "'a\\'b'");
}

TEST(AttributeSet, SetFindErase) {
  AttributeSet attrs;
  attrs.set("k", 1);
  EXPECT_TRUE(attrs.contains("k"));
  EXPECT_EQ(attrs.find("k")->as_number(), 1.0);
  attrs.set("k", 2);  // overwrite
  EXPECT_EQ(attrs.find("k")->as_number(), 2.0);
  EXPECT_TRUE(attrs.erase("k"));
  EXPECT_FALSE(attrs.erase("k"));
  EXPECT_EQ(attrs.find("k"), nullptr);
}

TEST(AttributeSet, MergeOverlayWins) {
  AttributeSet base;
  base.set("a", 1);
  base.set("b", 2);
  AttributeSet overlay;
  overlay.set("b", 20);
  overlay.set("c", 30);
  base.merge(overlay);
  EXPECT_EQ(base.find("a")->as_number(), 1.0);
  EXPECT_EQ(base.find("b")->as_number(), 20.0);
  EXPECT_EQ(base.find("c")->as_number(), 30.0);
}

TEST(AttributeSet, CodecRoundTrip) {
  AttributeSet attrs;
  attrs.set("bool", true);
  attrs.set("int", std::int64_t{-9});
  attrs.set("real", 1.25);
  attrs.set("text", "hello");
  serde::Writer w;
  attrs.encode(w);
  serde::Reader r(w.bytes());
  const auto decoded = AttributeSet::decode(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(decoded, attrs);
}

// ----------------------------------------------- Figure 3 interpretation

SemanticMessage mpeg2_video_message() {
  SemanticMessage message;
  message.selector = Selector::parse("exists interest.video").take();
  message.content.set("media.type", "video");
  message.content.set("video.color", true);
  message.content.set("video.encoding", "MPEG2");
  message.content.set("size.bytes", std::int64_t{1048576});
  message.event_type = "media.share";
  return message;
}

TEST(Match, Figure3Profile1Accepts) {
  // Client 1: interested in colour MPEG2 video -> accept.
  Profile profile;
  profile.set("interest.video", true);
  profile.set_interest(
      Selector::parse(
          "media.type == 'video' and video.color == true and "
          "video.encoding == 'MPEG2'")
          .take());
  const MatchDecision decision = match(profile, mpeg2_video_message());
  EXPECT_EQ(decision.kind, MatchDecision::Kind::accepted);
}

TEST(Match, Figure3Profile2Rejects) {
  // Client 2: B/W video with no encoding -> reject.
  Profile profile;
  profile.set("interest.video", true);
  profile.set_interest(
      Selector::parse("video.color == false and video.encoding == 'none'")
          .take());
  const MatchDecision decision = match(profile, mpeg2_video_message());
  EXPECT_EQ(decision.kind, MatchDecision::Kind::rejected);
  EXPECT_FALSE(decision.delivered());
}

TEST(Match, Figure3Profile3AcceptsWithTransformation) {
  // Client 3: wants JPEG, can transcode MPEG2 -> JPEG.
  Profile profile;
  profile.set("interest.video", true);
  profile.set_interest(
      Selector::parse(
          "video.color == true and video.encoding == 'JPEG'")
          .take());
  profile.add_capability({"video.encoding", "MPEG2", "JPEG"});
  const MatchDecision decision = match(profile, mpeg2_video_message());
  EXPECT_EQ(decision.kind,
            MatchDecision::Kind::accepted_with_transformation);
  EXPECT_TRUE(decision.delivered());
  EXPECT_EQ(decision.transformation.attribute, "video.encoding");
  EXPECT_EQ(decision.transformation.to, AttributeValue("JPEG"));
}

TEST(Match, SelectorGatesOnProfileAttributes) {
  Profile profile;  // lacks interest.video
  const MatchDecision decision = match(profile, mpeg2_video_message());
  EXPECT_EQ(decision.kind, MatchDecision::Kind::rejected);
}

TEST(Match, NoInterestMeansAcceptWhatSelectorSends) {
  Profile profile;
  profile.set("interest.video", true);
  const MatchDecision decision = match(profile, mpeg2_video_message());
  EXPECT_EQ(decision.kind, MatchDecision::Kind::accepted);
}

TEST(Match, CapabilityOnlyAppliesWhenFromValueMatches) {
  Profile profile;
  profile.set("interest.video", true);
  profile.set_interest(
      Selector::parse("video.encoding == 'JPEG'").take());
  profile.add_capability({"video.encoding", "H261", "JPEG"});  // wrong from
  EXPECT_EQ(match(profile, mpeg2_video_message()).kind,
            MatchDecision::Kind::rejected);
}

TEST(Match, FirstUsableCapabilityWins) {
  Profile profile;
  profile.set("interest.video", true);
  profile.set_interest(Selector::parse("video.encoding == 'JPEG'").take());
  profile.add_capability({"video.encoding", "MPEG2", "H261"});
  profile.add_capability({"video.encoding", "MPEG2", "JPEG"});
  const MatchDecision decision = match(profile, mpeg2_video_message());
  EXPECT_EQ(decision.kind,
            MatchDecision::Kind::accepted_with_transformation);
  EXPECT_EQ(decision.transformation.to, AttributeValue("JPEG"));
}

// ------------------------------------------------------ message codec

TEST(SemanticMessage, CodecRoundTrip) {
  SemanticMessage message = mpeg2_video_message();
  message.sender_id = 9;
  message.sequence = 44;
  message.payload = {1, 2, 3, 4};
  auto decoded = SemanticMessage::decode(serde::ByteChain(message.encode()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().selector.to_string(),
            message.selector.to_string());
  EXPECT_EQ(decoded.value().content, message.content);
  EXPECT_EQ(decoded.value().event_type, message.event_type);
  EXPECT_EQ(decoded.value().sender_id, 9u);
  EXPECT_EQ(decoded.value().sequence, 44u);
  EXPECT_EQ(decoded.value().payload, message.payload);
}

TEST(SemanticMessage, DecodeRejectsGarbage) {
  const serde::Bytes garbage = {0x12, 0x34};
  EXPECT_FALSE(SemanticMessage::decode(serde::ByteChain(garbage)).ok());
}

// ------------------------------------------------------- selector cache

serde::Bytes encoded_selector(const Selector& selector) {
  serde::Writer w;
  selector.encode(w);
  return std::move(w).take();
}

TEST(SelectorCacheTest, SteadyStreamHitsAfterFirstDecode) {
  SelectorCache cache;
  const Selector selector =
      Selector::parse("exists a and b.c in (1, 2, 'x')").take();
  const serde::Bytes wire = encoded_selector(selector);
  for (int i = 0; i < 5; ++i) {
    serde::Reader r(wire);
    const auto decoded = cache.decode(r);
    ASSERT_TRUE(r.ok());
    // Hit or miss, the reader must end up exactly past the selector.
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(decoded.to_string(), selector.to_string());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 4u);
  EXPECT_EQ(cache.stats().collisions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SelectorCacheTest, CachedDecodeMatchesUncachedDecisionExactly) {
  // Figure-3 style profile whose decision takes the transformation path,
  // so the comparison covers the full MatchDecision payload.
  Profile profile;
  profile.set("user.role", "viewer");
  profile.set_interest(Selector::parse("media.encoding == 'JPEG'").take());
  profile.add_capability(
      {"media.encoding", AttributeValue("MPEG2"), AttributeValue("JPEG")});

  SemanticMessage message;
  message.selector = Selector::parse("exists user.role").take();
  message.content.set("media.encoding", "MPEG2");
  message.event_type = "media.share";
  message.payload = {7, 7, 7};
  const serde::SharedBytes wire = message.encode();

  SelectorCache cache;
  for (int round = 0; round < 3; ++round) {
    auto plain = SemanticMessage::decode(serde::ByteChain(wire));
    auto cached = SemanticMessage::decode(serde::ByteChain(wire), cache);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(cached.ok());
    const MatchDecision a = match(profile, plain.value());
    const MatchDecision b = match(profile, cached.value());
    EXPECT_EQ(a.kind, MatchDecision::Kind::accepted_with_transformation);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.transformation, b.transformation);
    EXPECT_EQ(cached.value().encode(), plain.value().encode());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

std::uint64_t constant_fingerprint(std::span<const std::uint8_t>) {
  return 42;
}

TEST(SelectorCacheTest, FingerprintCollisionFallsBackToFreshDecode) {
  SelectorCache cache(8, &constant_fingerprint);
  const Selector a = Selector::parse("a == 1").take();
  const Selector b = Selector::parse("b.c == 'x'").take();
  const serde::Bytes wire_a = encoded_selector(a);
  const serde::Bytes wire_b = encoded_selector(b);
  {
    serde::Reader r(wire_a);
    (void)cache.decode(r);
    ASSERT_TRUE(r.ok());  // miss, fills the slot
  }
  {
    serde::Reader r(wire_b);  // same fingerprint, different bytes
    const auto decoded = cache.decode(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(decoded.to_string(), b.to_string());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().collisions, 1u);
  // Newest wins the contested slot: b now hits, a collides afresh but
  // still decodes correctly.
  {
    serde::Reader r(wire_b);
    (void)cache.decode(r);
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  {
    serde::Reader r(wire_a);
    const auto decoded = cache.decode(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(decoded.to_string(), a.to_string());
  }
  EXPECT_EQ(cache.stats().collisions, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SelectorCacheTest, LruEvictionRespectsCapacity) {
  SelectorCache cache(2);
  const serde::Bytes wire_a = encoded_selector(Selector::parse("a == 1").take());
  const serde::Bytes wire_b = encoded_selector(Selector::parse("a == 2").take());
  const serde::Bytes wire_c = encoded_selector(Selector::parse("a == 3").take());
  const auto decode = [&cache](const serde::Bytes& wire) {
    serde::Reader r(wire);
    (void)cache.decode(r);
    ASSERT_TRUE(r.ok());
  };
  decode(wire_a);  // miss  {a}
  decode(wire_b);  // miss  {b, a}
  decode(wire_a);  // hit   {a, b}
  decode(wire_c);  // miss, evicts b (least recently used)  {c, a}
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  decode(wire_b);  // miss again: b was evicted; evicts a  {b, c}
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

// --------------------------------------------------------------- peers

class PeerTest : public ::testing::Test {
 protected:
  static constexpr net::GroupId kGroup = net::make_group(0xE0000001);

  std::unique_ptr<SemanticPeer> make_peer(const std::string& name,
                                          std::uint64_t id) {
    const net::NodeId node = network_.add_node(name);
    return std::make_unique<SemanticPeer>(network_, node, kGroup, id);
  }

  SemanticMessage text_message(std::string body,
                               Selector selector = Selector::always()) {
    SemanticMessage message;
    message.selector = std::move(selector);
    message.content.set("media.type", "text");
    message.event_type = "media.share";
    message.payload = serde::ByteChain(serde::Bytes(body.begin(), body.end()));
    return message;
  }

  sim::Simulator sim_;
  net::Network network_{sim_, 42};
};

TEST_F(PeerTest, PublishReachesOtherPeers) {
  auto alice = make_peer("alice", 1);
  auto bob = make_peer("bob", 2);
  auto carol = make_peer("carol", 3);
  std::vector<std::string> bob_got, carol_got;
  bob->on_message([&](const SemanticMessage& m, const MatchDecision&) {
    bob_got.emplace_back(m.payload.begin(), m.payload.end());
  });
  carol->on_message([&](const SemanticMessage& m, const MatchDecision&) {
    carol_got.emplace_back(m.payload.begin(), m.payload.end());
  });
  ASSERT_TRUE(alice->publish(text_message("hello")).ok());
  sim_.run_all();
  ASSERT_EQ(bob_got.size(), 1u);
  EXPECT_EQ(bob_got[0], "hello");
  ASSERT_EQ(carol_got.size(), 1u);
  EXPECT_EQ(alice->stats().published, 1u);
  EXPECT_EQ(bob->stats().accepted, 1u);
}

TEST_F(PeerTest, SelectorFiltersByProfile) {
  auto alice = make_peer("alice", 1);
  auto bob = make_peer("bob", 2);
  auto carol = make_peer("carol", 3);
  bob->profile().set("team", "rescue");
  carol->profile().set("team", "logistics");
  int bob_got = 0, carol_got = 0;
  bob->on_message([&](const SemanticMessage&, const MatchDecision&) {
    ++bob_got;
  });
  carol->on_message([&](const SemanticMessage&, const MatchDecision&) {
    ++carol_got;
  });
  ASSERT_TRUE(alice
                  ->publish(text_message(
                      "rescue only",
                      Selector::parse("team == 'rescue'").take()))
                  .ok());
  sim_.run_all();
  EXPECT_EQ(bob_got, 1);
  EXPECT_EQ(carol_got, 0);
  EXPECT_EQ(carol->stats().rejected, 1u);
}

TEST_F(PeerTest, InterestExpressionFiltersByContent) {
  auto alice = make_peer("alice", 1);
  auto bob = make_peer("bob", 2);
  bob->profile().set_interest(
      Selector::parse("media.type == 'image'").take());
  int got = 0;
  bob->on_message([&](const SemanticMessage&, const MatchDecision&) {
    ++got;
  });
  ASSERT_TRUE(alice->publish(text_message("text thing")).ok());
  sim_.run_all();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(bob->stats().rejected, 1u);
}

TEST_F(PeerTest, LargeMessageFragmentsAndReassembles) {
  auto alice = make_peer("alice", 1);
  auto bob = make_peer("bob", 2);
  std::string blob(20'000, 'x');
  std::size_t got_size = 0;
  bob->on_message([&](const SemanticMessage& m, const MatchDecision&) {
    got_size = m.payload.size();
  });
  ASSERT_TRUE(alice->publish(text_message(blob)).ok());
  sim_.run_all();
  EXPECT_EQ(got_size, 20'000u);
  // Fragmentation actually happened (multiple datagrams on the wire).
  EXPECT_GT(network_.stats().datagrams_sent, 10u);
}

TEST_F(PeerTest, MessageBeyondFragmentFieldsIsRefusedUnsent) {
  // The 16-bit fragment fields cap an object at 65535 packets. Past that
  // the packets' fragment_count would wrap and the receiver would
  // deliver a truncated "complete" object, so every send path refuses.
  PeerOptions mtu_one;
  mtu_one.mtu_payload = 1;
  auto alice = std::make_unique<SemanticPeer>(
      network_, network_.add_node("alice"), kGroup, 1, mtu_one);
  auto bob = std::make_unique<SemanticPeer>(
      network_, network_.add_node("bob"), kGroup, 2, mtu_one);
  int delivered = 0;
  bob->on_message([&](const SemanticMessage&, const MatchDecision&) {
    ++delivered;
  });
  const SemanticMessage big = text_message(std::string(65'536, 'x'));
  ASSERT_GT(big.encode().size(), net::RtpPacketizer::kMaxFragments);
  EXPECT_EQ(alice->publish(big).code(), Errc::resource_limit);
  EXPECT_EQ(alice->send_to(bob->address(), big).code(),
            Errc::resource_limit);
  EXPECT_EQ(alice->relay_to(bob->address(), big).code(),
            Errc::resource_limit);
  sim_.run_all();
  EXPECT_EQ(network_.stats().datagrams_sent, 0u);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(alice->stats().published, 0u);

  // The refusals left the peer usable.
  ASSERT_TRUE(alice->publish(text_message("small")).ok());
  sim_.run_all();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(alice->stats().published, 1u);
}

TEST_F(PeerTest, LossyLinkDropsIncompleteMessagesBestEffort) {
  // Pure best-effort (repair disabled): incomplete messages are dropped.
  const net::NodeId a = network_.add_node("alice");
  const net::NodeId b = network_.add_node("bob");
  PeerOptions best_effort;
  best_effort.nack_attempts = 0;
  auto alice =
      std::make_unique<SemanticPeer>(network_, a, kGroup, 1, best_effort);
  auto bob =
      std::make_unique<SemanticPeer>(network_, b, kGroup, 2, best_effort);
  net::LinkParams lossy;
  lossy.loss_probability = 0.5;
  ASSERT_TRUE(network_.set_link_params(
      bob->address().node, lossy).ok());
  int delivered = 0;
  bob->on_message([&](const SemanticMessage&, const MatchDecision&) {
    ++delivered;
  });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(alice->publish(text_message(std::string(30'000, 'y'))).ok());
  }
  // Run long enough for flush timers to fire.
  sim_.run_until(sim_.now() + sim::Duration::seconds(10.0));
  // ~21 fragments each at 50% loss: virtually none completes.
  EXPECT_LT(delivered, 3);
  EXPECT_GT(bob->stats().incomplete_dropped, 0u);
}

TEST_F(PeerTest, NackRepairRecoversLostFragments) {
  // With selective-repeat repair, large messages survive a lossy
  // downlink that best-effort mode virtually never crosses
  // (~21 fragments at 20% loss: P[intact] ~ 0.9%).
  const net::NodeId a = network_.add_node("alice");
  const net::NodeId b = network_.add_node("bob");
  PeerOptions repair;
  repair.nack_attempts = 4;
  auto alice =
      std::make_unique<SemanticPeer>(network_, a, kGroup, 1, repair);
  auto bob = std::make_unique<SemanticPeer>(network_, b, kGroup, 2, repair);
  net::LinkParams lossy;
  lossy.loss_probability = 0.2;
  ASSERT_TRUE(network_.set_link_params(b, lossy).ok());
  int delivered = 0;
  bob->on_message([&](const SemanticMessage&, const MatchDecision&) {
    ++delivered;
  });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(alice->publish(text_message(std::string(30'000, 'z'))).ok());
    sim_.run_until(sim_.now() + sim::Duration::seconds(3.0));
  }
  EXPECT_GE(delivered, 7);
  EXPECT_GT(bob->stats().nacks_sent, 0u);
  EXPECT_GT(alice->stats().nacks_received, 0u);
  EXPECT_GT(alice->stats().retransmissions, 0u);
}

TEST_F(PeerTest, NackGivesUpWhenRepairNeverAnswers) {
  // Hand-feed a partial object from a raw endpoint that will never
  // serve retransmissions: the receiver must bound its NACKs, flush the
  // partial, and go idle.
  auto bob = make_peer("bob", 2);
  const net::NodeId raw_node = network_.add_node("ghost");
  auto ghost = network_.bind(raw_node).take();
  int delivered = 0;
  bob->on_message([&](const SemanticMessage&, const MatchDecision&) {
    ++delivered;
  });
  net::RtpPacketizer packetizer(77, 1400);
  SemanticMessage message = text_message(std::string(10'000, 'q'));
  message.sender_id = 77;
  message.sequence = 1;
  auto packets = packetizer.packetize_views(message.encode(), 96, 1);
  ASSERT_GT(packets.size(), 2u);
  packets.pop_back();  // withhold the tail forever
  for (const auto& packet : packets) {
    ASSERT_TRUE(ghost->send(bob->address(), packet.wire()).ok());
  }
  sim_.run_until(sim_.now() + sim::Duration::seconds(10.0));
  EXPECT_EQ(delivered, 0);
  // Attempts were bounded and the partial was eventually flushed.
  EXPECT_EQ(bob->stats().nacks_sent, 2u);  // the default attempt budget
  EXPECT_EQ(bob->stats().incomplete_dropped, 1u);
  // The peer is idle again (no timer leak).
  EXPECT_EQ(sim_.pending(), 0u);
}

TEST_F(PeerTest, RetransmitBufferEvictionIsBounded) {
  // One-fragment messages, one past the ring: the first is evicted, the
  // second is the oldest one still held.
  auto alice = make_peer("alice", 1);
  constexpr std::size_t kSent = SemanticPeer::kRetransmitBufferPackets + 1;
  for (std::size_t i = 0; i < kSent; ++i) {
    ASSERT_TRUE(alice->publish(text_message("x")).ok());
  }
  sim_.run_all();
  auto ghost = network_.bind(network_.add_node("ghost")).take();
  int repaired = 0;
  ghost->on_receive([&](const net::Datagram&) { ++repaired; });
  // A NACK (magic 0xA8, ssrc, transport timestamp = sequence, then the
  // missing fragment indices) for fragment 0 of message `sequence`.
  const auto nack = [&](std::uint32_t sequence) {
    serde::Writer w;
    w.u8(0xA8);
    w.u32(1);  // the ssrc is alice's peer id
    w.u32(sequence);
    w.varint(1);
    w.u16(0);
    ASSERT_TRUE(ghost->send(alice->address(), std::move(w).take()).ok());
    sim_.run_all();
  };
  nack(1);
  EXPECT_EQ(alice->stats().nacks_received, 1u);
  EXPECT_EQ(alice->stats().retransmissions, 0u);
  EXPECT_EQ(repaired, 0);
  nack(2);
  nack(static_cast<std::uint32_t>(kSent));
  EXPECT_EQ(alice->stats().nacks_received, 3u);
  EXPECT_EQ(alice->stats().retransmissions, 2u);
  EXPECT_EQ(repaired, 2);
}

// and_with and negate do not check Selector::kMaxDepth, so the sender
// does: what it sends, every receiver decodes.
class SelectorDepth : public PeerTest {};

TEST_F(SelectorDepth, PeerSendsNoSelectorAReceiverWouldRefuse) {
  auto alice = make_peer("alice", 1);
  auto bob = make_peer("bob", 2);
  bob->profile().set("x", std::int64_t{1});
  int delivered = 0;
  bob->on_message([&](const SemanticMessage&, const MatchDecision&) {
    ++delivered;
  });
  std::string chain = "x == 1";
  for (int i = 0; i < Selector::kMaxDepth; ++i) chain += " and x == 1";
  const Selector deepest = Selector::parse(chain).take();
  ASSERT_EQ(deepest.depth(), Selector::kMaxDepth);
  // Every node's datagrams leaving, summed by the registry family.
  const auto sent = [] {
    return telemetry::MetricsRegistry::global().read("net.node.datagrams_out");
  };

  const double before = sent();
  EXPECT_EQ(
      alice->publish(text_message("x", deepest.and_with(Selector::always())))
          .code(),
      Errc::out_of_range);
  EXPECT_EQ(alice->publish(text_message("x", deepest.negate())).code(),
            Errc::out_of_range);
  EXPECT_EQ(alice->send_to(bob->address(), text_message("x", deepest.negate()))
                .code(),
            Errc::out_of_range);
  sim_.run_all();
  EXPECT_EQ(sent(), before);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(alice->stats().published, 0u);

  ASSERT_TRUE(alice->publish(text_message("x", deepest)).ok());
  sim_.run_all();
  EXPECT_GT(sent(), before);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(alice->stats().published, 1u);
  EXPECT_EQ(bob->stats().undecodable, 0u);
}

TEST_F(PeerTest, UnicastSendToTargetsOnePeer) {
  auto alice = make_peer("alice", 1);
  auto bob = make_peer("bob", 2);
  auto carol = make_peer("carol", 3);
  int bob_got = 0, carol_got = 0;
  bob->on_message([&](const SemanticMessage&, const MatchDecision&) {
    ++bob_got;
  });
  carol->on_message([&](const SemanticMessage&, const MatchDecision&) {
    ++carol_got;
  });
  ASSERT_TRUE(alice->send_to(bob->address(), text_message("psst")).ok());
  sim_.run_all();
  EXPECT_EQ(bob_got, 1);
  EXPECT_EQ(carol_got, 0);
}

TEST_F(PeerTest, SequencesIncreasePerSender) {
  auto alice = make_peer("alice", 1);
  auto bob = make_peer("bob", 2);
  std::vector<std::uint64_t> sequences;
  bob->on_message([&](const SemanticMessage& m, const MatchDecision&) {
    sequences.push_back(m.sequence);
  });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(alice->publish(text_message("m")).ok());
  }
  sim_.run_all();
  ASSERT_EQ(sequences.size(), 5u);
  for (std::size_t i = 1; i < sequences.size(); ++i) {
    EXPECT_EQ(sequences[i], sequences[i - 1] + 1);
  }
}

TEST_F(PeerTest, TransformationDecisionSurfacesToHandler) {
  auto alice = make_peer("alice", 1);
  auto bob = make_peer("bob", 2);
  bob->profile().set_interest(
      Selector::parse("media.type == 'sketch'").take());
  bob->profile().add_capability({"media.type", "text", "sketch"});
  MatchDecision seen;
  bob->on_message([&](const SemanticMessage&, const MatchDecision& d) {
    seen = d;
  });
  ASSERT_TRUE(alice->publish(text_message("plain")).ok());
  sim_.run_all();
  EXPECT_EQ(seen.kind, MatchDecision::Kind::accepted_with_transformation);
  EXPECT_EQ(bob->stats().accepted_with_transformation, 1u);
}

TEST_F(PeerTest, SteadyStreamServesSelectorsFromDecodeCache) {
  auto alice = make_peer("alice", 1);
  auto bob = make_peer("bob", 2);
  bob->profile().set("team", "rescue");
  int got = 0;
  bob->on_message(
      [&](const SemanticMessage&, const MatchDecision&) { ++got; });
  const Selector selector = Selector::parse("team == 'rescue'").take();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(alice->publish(text_message("tick", selector)).ok());
  }
  sim_.run_all();
  EXPECT_EQ(got, 10);
  // One real selector decode for the whole stream; the other nine
  // messages hit the fingerprint cache.
  EXPECT_EQ(bob->selector_cache_stats().misses, 1u);
  EXPECT_EQ(bob->selector_cache_stats().hits, 9u);
  EXPECT_EQ(bob->selector_cache_stats().collisions, 0u);
}

}  // namespace
}  // namespace collabqos::pubsub
