#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "collabqos/net/rtp.hpp"
#include "collabqos/telemetry/metrics.hpp"
#include "collabqos/util/rng.hpp"

namespace collabqos::net {
namespace {

serde::Bytes make_object(std::size_t size, std::uint8_t seed = 1) {
  serde::Bytes bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return bytes;
}

TEST(RtpPacket, CodecRoundTrip) {
  RtpPacket p;
  p.ssrc = 0xCAFEBABE;
  p.sequence = 65534;
  p.timestamp = 123456;
  p.payload_type = 96;
  p.fragment_index = 2;
  p.fragment_count = 5;
  p.payload = make_object(100);
  auto decoded = RtpPacket::decode(p.wire());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().ssrc, p.ssrc);
  EXPECT_EQ(decoded.value().sequence, p.sequence);
  EXPECT_EQ(decoded.value().timestamp, p.timestamp);
  EXPECT_EQ(decoded.value().payload_type, p.payload_type);
  EXPECT_EQ(decoded.value().fragment_index, p.fragment_index);
  EXPECT_EQ(decoded.value().fragment_count, p.fragment_count);
  EXPECT_EQ(decoded.value().payload, p.payload);
}

TEST(RtpPacket, RejectsGarbage) {
  const serde::Bytes garbage = {0x00, 0x01, 0x02};
  EXPECT_FALSE(RtpPacket::decode(serde::ByteChain(garbage)).ok());
}

TEST(RtpPacket, RejectsBadFragmentFields) {
  RtpPacket p;
  p.fragment_index = 5;
  p.fragment_count = 5;  // index must be < count
  EXPECT_FALSE(RtpPacket::decode(p.wire()).ok());
}

// Byte offsets in the wire form (the "rtp" entries of tests/golden/wire.json).
constexpr std::size_t kFieldsBegin = 1;      // ssrc .. fragment count
constexpr std::size_t kFragmentBegin = 12;   // fragment index and count
constexpr std::size_t kChecksumBegin = 16;
constexpr std::size_t kChecksumEnd = 20;

// Whether a flip at `byte` must be charged to rtp.corrupt_detected: one
// the structural checks cannot see, so only the checksum compare can.
bool only_checksum_sees(std::size_t byte, std::size_t payload_begin) {
  return (byte >= kFieldsBegin && byte < kFragmentBegin) ||
         (byte >= kChecksumBegin && byte < kChecksumEnd) ||
         byte >= payload_begin;
}

TEST(RtpPacket, EverySingleBitFlipIsRejected) {
  auto& registry = telemetry::MetricsRegistry::global();
  for (const std::size_t size : {0u, 1u, 7u, 64u, 1400u}) {
    RtpPacket p;
    p.ssrc = 0x5EED0000u + static_cast<std::uint32_t>(size);
    p.sequence = 4242;
    p.timestamp = 99;
    p.payload_type = 96;
    p.fragment_index = 1;
    p.fragment_count = 3;
    p.payload = make_object(size, static_cast<std::uint8_t>(size));
    const serde::Bytes wire = p.wire().gather();
    const std::size_t payload_begin = wire.size() - size;
    for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
      serde::Bytes flipped = wire;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const double before = registry.read("rtp.corrupt_detected");
      EXPECT_FALSE(RtpPacket::decode(serde::ByteChain(flipped)).ok())
          << "payload " << size << " bit " << bit;
      if (only_checksum_sees(bit / 8, payload_begin)) {
        EXPECT_EQ(registry.read("rtp.corrupt_detected"), before + 1)
            << "payload " << size << " bit " << bit;
      }
    }
  }
}

TEST(RtpPacket, BurstErrorsUpTo32BitsAreRejected) {
  Rng rng(21);
  for (const std::size_t size : {0u, 1u, 7u, 64u, 1400u}) {
    RtpPacket p;
    p.ssrc = 0xB0B0B0B0u;
    p.sequence = 7;
    p.timestamp = static_cast<std::uint32_t>(size);
    p.payload_type = 97;
    p.fragment_index = 0;
    p.fragment_count = 1;
    p.payload = make_object(size, 3);
    const serde::Bytes wire = p.wire().gather();
    const std::size_t payload_begin = wire.size() - size;
    for (std::size_t start = kFieldsBegin; start < wire.size(); ++start) {
      if (start >= kChecksumBegin && start < payload_begin) continue;
      for (int trial = 0; trial < 4; ++trial) {
        // A burst of `length` bits: first and last set, the rest random,
        // clipped to the end of the datagram.
        const auto length = static_cast<std::size_t>(rng.uniform_int(2, 32));
        const std::size_t first =
            start * 8 + static_cast<std::size_t>(rng.uniform_int(0, 7));
        const std::size_t last =
            std::min(first + length - 1, wire.size() * 8 - 1);
        serde::Bytes burst = wire;
        for (std::size_t bit = first; bit <= last; ++bit) {
          if (bit == first || bit == last || rng.chance(0.5)) {
            burst[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
          }
        }
        EXPECT_FALSE(RtpPacket::decode(serde::ByteChain(burst)).ok())
            << "payload " << size << " bits " << first << ".." << last;
      }
    }
  }
}

TEST(RtpPacketizer, SplitsAtMtu) {
  RtpPacketizer packetizer(7, 100);
  const auto packets = packetizer.packetize_views(make_object(250), 96, 1);
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(packets[0].payload.size(), 100u);
  EXPECT_EQ(packets[1].payload.size(), 100u);
  EXPECT_EQ(packets[2].payload.size(), 50u);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].fragment_index, i);
    EXPECT_EQ(packets[i].fragment_count, 3);
    EXPECT_EQ(packets[i].timestamp, 1u);
  }
}

TEST(RtpPacketizer, SequenceNumbersAreContiguousAcrossObjects) {
  RtpPacketizer packetizer(7, 100);
  const auto first = packetizer.packetize_views(make_object(150), 96, 1);
  const auto second = packetizer.packetize_views(make_object(150), 96, 2);
  EXPECT_EQ(first[0].sequence, 0);
  EXPECT_EQ(first[1].sequence, 1);
  EXPECT_EQ(second[0].sequence, 2);
  EXPECT_EQ(second[1].sequence, 3);
}

TEST(RtpPacketizer, EmptyObjectYieldsOnePacket) {
  RtpPacketizer packetizer(7, 100);
  const auto packets = packetizer.packetize_views({}, 96, 1);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_TRUE(packets[0].payload.empty());
}

class RtpReceiverTest : public ::testing::Test {
 protected:
  void deliver(const RtpPacket& packet, sim::TimePoint at = {}) {
    ASSERT_TRUE(receiver_.ingest(packet.wire(), at).ok());
  }

  RtpReceiver receiver_{sim::Duration::millis(100)};
  std::vector<RtpObject> objects_;

  void SetUp() override {
    receiver_.on_object(
        [this](const RtpObject& object) { objects_.push_back(object); });
  }
};

TEST_F(RtpReceiverTest, ReassemblesInOrder) {
  RtpPacketizer packetizer(1, 64);
  const serde::Bytes original = make_object(200);
  for (const auto& packet : packetizer.packetize_views(original, 96, 5)) {
    deliver(packet);
  }
  ASSERT_EQ(objects_.size(), 1u);
  EXPECT_TRUE(objects_[0].complete);
  EXPECT_EQ(objects_[0].payload_chain(), original);
  EXPECT_EQ(objects_[0].timestamp, 5u);
}

TEST_F(RtpReceiverTest, ReassemblesOutOfOrder) {
  RtpPacketizer packetizer(1, 50);
  const serde::Bytes original = make_object(200, 9);
  auto packets = packetizer.packetize_views(original, 96, 5);
  std::reverse(packets.begin(), packets.end());
  for (const auto& packet : packets) deliver(packet);
  ASSERT_EQ(objects_.size(), 1u);
  EXPECT_EQ(objects_[0].payload_chain(), original);
}

TEST_F(RtpReceiverTest, DuplicatesAreAbsorbed) {
  RtpPacketizer packetizer(1, 64);
  const auto packets = packetizer.packetize_views(make_object(100), 96, 5);
  for (const auto& packet : packets) {
    deliver(packet);
    deliver(packet);  // duplicate every fragment
  }
  EXPECT_EQ(objects_.size(), 1u);
}

TEST_F(RtpReceiverTest, CompletedObjectIsDeliveredAtMostOnce) {
  // A full duplicate set arriving after completion must be absorbed,
  // not re-deliver the object (found by the loss/reorder fuzzer).
  RtpPacketizer packetizer(1, 64);
  const auto packets = packetizer.packetize_views(make_object(200), 96, 5);
  for (const auto& packet : packets) deliver(packet);
  ASSERT_EQ(objects_.size(), 1u);
  for (const auto& packet : packets) deliver(packet);  // full replay
  (void)receiver_.flush_stale(sim::TimePoint::from_micros(60'000'000));
  EXPECT_EQ(objects_.size(), 1u);
  EXPECT_EQ(receiver_.pending_objects(), 0u);
}

TEST_F(RtpReceiverTest, InterleavedObjectsSortOut) {
  RtpPacketizer packetizer(1, 50);
  const serde::Bytes first = make_object(120, 1);
  const serde::Bytes second = make_object(120, 2);
  const auto p1 = packetizer.packetize_views(first, 96, 1);
  const auto p2 = packetizer.packetize_views(second, 96, 2);
  // Interleave fragments of the two objects.
  for (std::size_t i = 0; i < p1.size(); ++i) {
    deliver(p1[i]);
    deliver(p2[i]);
  }
  ASSERT_EQ(objects_.size(), 2u);
  EXPECT_EQ(objects_[0].payload_chain(), first);
  EXPECT_EQ(objects_[1].payload_chain(), second);
}

TEST_F(RtpReceiverTest, MultipleSourcesIndependent) {
  RtpPacketizer alice(10, 64);
  RtpPacketizer bob(20, 64);
  const serde::Bytes a = make_object(100, 1);
  const serde::Bytes b = make_object(100, 2);
  for (const auto& packet : alice.packetize_views(a, 96, 1)) deliver(packet);
  for (const auto& packet : bob.packetize_views(b, 96, 1)) deliver(packet);
  ASSERT_EQ(objects_.size(), 2u);
  EXPECT_EQ(objects_[0].ssrc, 10u);
  EXPECT_EQ(objects_[1].ssrc, 20u);
}

TEST_F(RtpReceiverTest, LostFragmentFlushesPartial) {
  RtpPacketizer packetizer(1, 50);
  auto packets = packetizer.packetize_views(make_object(200), 96, 7);
  packets.erase(packets.begin() + 1);  // drop one fragment
  for (const auto& packet : packets) deliver(packet);
  EXPECT_TRUE(objects_.empty());
  EXPECT_EQ(receiver_.pending_objects(), 1u);

  const std::size_t flushed = receiver_.flush_stale(
      sim::TimePoint::from_micros(200'000));
  EXPECT_EQ(flushed, 1u);
  ASSERT_EQ(objects_.size(), 1u);
  EXPECT_FALSE(objects_[0].complete);
  EXPECT_EQ(objects_[0].fragments_received, 3);
  EXPECT_EQ(objects_[0].fragment_count, 4);
  // Reassembly skips the hole but keeps received bytes in order.
  EXPECT_EQ(objects_[0].payload_chain().size(), 150u);
}

TEST_F(RtpReceiverTest, FlushRespectsRecency) {
  RtpPacketizer packetizer(1, 50);
  auto packets = packetizer.packetize_views(make_object(200), 96, 7);
  packets.pop_back();
  for (const auto& packet : packets) {
    deliver(packet, sim::TimePoint::from_micros(50'000));
  }
  // Not yet stale at t=100ms (flush_after is 100ms from last update).
  EXPECT_EQ(receiver_.flush_stale(sim::TimePoint::from_micros(100'000)), 0u);
  EXPECT_EQ(receiver_.flush_stale(sim::TimePoint::from_micros(150'000)), 1u);
}

TEST_F(RtpReceiverTest, ReportCountsLoss) {
  RtpPacketizer packetizer(1, 50);
  auto packets = packetizer.packetize_views(make_object(500), 96, 1);
  ASSERT_EQ(packets.size(), 10u);
  // Drop 3 of 10 fragments.
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i == 2 || i == 5 || i == 7) continue;
    deliver(packets[i]);
  }
  auto report = receiver_.report(1);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().packets_received, 7u);
  EXPECT_EQ(report.value().packets_expected, 10u);
  EXPECT_EQ(report.value().cumulative_lost, 3);
  EXPECT_NEAR(report.value().fraction_lost, 0.3, 1e-9);
}

TEST_F(RtpReceiverTest, ReportIntervalResets) {
  RtpPacketizer packetizer(1, 50);
  const auto first = packetizer.packetize_views(make_object(100), 96, 1);
  for (const auto& packet : first) deliver(packet);
  (void)receiver_.report(1);
  const auto second = packetizer.packetize_views(make_object(100), 96, 2);
  for (const auto& packet : second) deliver(packet);
  auto report = receiver_.report(1);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report.value().fraction_lost, 0.0, 1e-9);
  EXPECT_EQ(report.value().cumulative_lost, 0);
}

TEST_F(RtpReceiverTest, ReportUnknownSsrcFails) {
  EXPECT_FALSE(receiver_.report(12345).ok());
}

TEST_F(RtpReceiverTest, SequenceWraparoundCountsForward) {
  // Start near the 16-bit boundary and cross it.
  RtpPacketizer packetizer(1, 50);
  // Advance the packetizer's sequence to 65530 by consuming packets.
  for (int i = 0; i < 6553; ++i) {
    (void)packetizer.packetize_views(make_object(500), 96, 1000 + i);
  }
  EXPECT_EQ(packetizer.next_sequence(), 65530);
  const auto packets = packetizer.packetize_views(make_object(500), 96, 42);
  for (const auto& packet : packets) deliver(packet);
  auto report = receiver_.report(1);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().packets_received, 10u);
  EXPECT_EQ(report.value().packets_expected, 10u);  // no phantom loss
}

TEST_F(RtpReceiverTest, JitterIsNonNegativeAndBounded) {
  RtpPacketizer packetizer(1, 50);
  Rng rng(3);
  sim::TimePoint now{};
  for (int object = 0; object < 20; ++object) {
    const auto packets = packetizer.packetize_views(
        make_object(150), 96, static_cast<std::uint32_t>(object));
    for (const auto& packet : packets) {
      now = now + sim::Duration::micros(rng.uniform_int(100, 3000));
      deliver(packet, now);
    }
  }
  auto report = receiver_.report(1);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report.value().interarrival_jitter_us, 0.0);
  EXPECT_LT(report.value().interarrival_jitter_us, 1e6);
}

TEST_F(RtpReceiverTest, MismatchedFragmentCountRejected) {
  RtpPacket a;
  a.ssrc = 1;
  a.sequence = 0;
  a.timestamp = 1;
  a.fragment_index = 0;
  a.fragment_count = 2;
  a.payload = make_object(10);
  RtpPacket b = a;
  b.sequence = 1;
  b.fragment_index = 1;
  b.fragment_count = 3;  // inconsistent
  ASSERT_TRUE(receiver_.ingest(a.wire(), {}).ok());
  EXPECT_FALSE(receiver_.ingest(b.wire(), {}).ok());
}

TEST_F(RtpReceiverTest, GarbageIngestFails) {
  const serde::Bytes garbage = {1, 2, 3, 4};
  EXPECT_FALSE(receiver_.ingest(serde::ByteChain(garbage), {}).ok());
}

}  // namespace
}  // namespace collabqos::net
