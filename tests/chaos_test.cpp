// Chaos plane (DESIGN.md §12): schedule grammar, controller fault
// injection, repair-path resilience under storms, and the end-to-end
// resilience harness.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "collabqos/chaos/controller.hpp"
#include "collabqos/chaos/harness.hpp"
#include "collabqos/chaos/schedule.hpp"
#include "collabqos/core/session.hpp"
#include "collabqos/net/network.hpp"
#include "collabqos/net/rtp.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/telemetry/metrics.hpp"
#include "collabqos/util/hash.hpp"
#include "collabqos/util/rng.hpp"

namespace collabqos {
namespace {

std::uint64_t chain_digest(const serde::ByteChain& chain) {
  Fnv1a digest;
  for (const serde::SharedBytes& slice : chain.slices()) {
    digest.update(slice.span());
  }
  return digest.value();
}

// ---------------------------------------------------------------- grammar

TEST(ChaosSchedule, ParsesTheDocumentedGrammar) {
  const auto parsed = chaos::ChaosSchedule::parse(
      "# burst then a storm\n"
      "at 250ms for 2s burst nodes=a,b p_gb=0.5 p_bg=0.125 loss_bad=0.9\n"
      "at 1.5s for 500ms reorder p=0.3 delay=40ms\n"
      "at 3 duplicate p=0.2 skew=1ms seed=42\n"
      "at 2s for 1s partition nodes=a peers=b,c\n"
      "at 4s for 1s crash target=w2\n");
  ASSERT_TRUE(parsed.ok());
  const auto& events = parsed.value().events();
  ASSERT_EQ(events.size(), 5u);

  // Sorted by injection time, not file order.
  EXPECT_EQ(events[0].kind, chaos::FaultKind::burst_loss);
  EXPECT_EQ(events[0].at.as_micros(), 250'000);
  EXPECT_EQ(events[0].duration.as_micros(), 2'000'000);
  ASSERT_EQ(events[0].nodes.size(), 2u);
  EXPECT_EQ(events[0].nodes[0], "a");
  EXPECT_DOUBLE_EQ(events[0].p_good_to_bad, 0.5);
  EXPECT_DOUBLE_EQ(events[0].p_bad_to_good, 0.125);
  EXPECT_DOUBLE_EQ(events[0].loss_bad, 0.9);

  EXPECT_EQ(events[1].kind, chaos::FaultKind::reorder);
  EXPECT_EQ(events[1].delay.as_micros(), 40'000);
  EXPECT_TRUE(events[1].nodes.empty());  // all traffic

  EXPECT_EQ(events[2].kind, chaos::FaultKind::partition);
  ASSERT_EQ(events[2].peers.size(), 2u);

  EXPECT_EQ(events[3].kind, chaos::FaultKind::duplicate);
  EXPECT_EQ(events[3].at.as_micros(), 3'000'000);  // bare seconds
  EXPECT_EQ(events[3].seed, 42u);
  EXPECT_FALSE(events[3].timed());  // never heals

  EXPECT_EQ(events[4].kind, chaos::FaultKind::crash);
  ASSERT_EQ(events[4].nodes.size(), 1u);
  EXPECT_EQ(events[4].nodes[0], "w2");

  // last_change: the crash clears at 5s, later than every other event.
  EXPECT_EQ(parsed.value().last_change().as_micros(), 5'000'000);
  EXPECT_TRUE(parsed.value().has_unhealed());  // the duplicate event
}

TEST(ChaosSchedule, EmptyOrCommentOnlyTextIsAnEmptySchedule) {
  for (const char* text : {"", "   \n\t\n", "# nothing\n  # here\n"}) {
    const auto parsed = chaos::ChaosSchedule::parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_TRUE(parsed.value().empty());
    EXPECT_FALSE(parsed.value().has_unhealed());
    EXPECT_EQ(parsed.value().last_change().as_micros(), 0);
  }
}

TEST(ChaosSchedule, RejectsMalformedLinesWithLineNumbers) {
  const char* bad[] = {
      "later 5s burst nodes=a",            // no 'at'
      "at soon loss nodes=a p=0.1",        // unparseable time
      "at 1s frobnicate nodes=a",          // unknown kind
      "at 1s burst",                       // link kind without nodes=
      "at 1s outage",                      // target kind without target=
      "at 1s crash target=x",              // crash must be timed
      "at 1s for 0s loss nodes=a p=0.5",   // zero duration
      "at 1s loss nodes=a p=1.5",          // probability out of range
      "at 1s loss nodes=a p=oops",         // non-numeric value
  };
  for (const char* text : bad) {
    const auto parsed = chaos::ChaosSchedule::parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.error().code, Errc::malformed) << text;
    // Diagnostics carry the 1-based source line.
    EXPECT_NE(parsed.error().message.find("line 1"), std::string::npos)
        << parsed.error().message;
  }
  // And the line number tracks the actual offending line.
  const auto multi =
      chaos::ChaosSchedule::parse("# fine\nat 1s loss nodes=a p=0.1\nat x\n");
  ASSERT_FALSE(multi.ok());
  EXPECT_NE(multi.error().message.find("line 3"), std::string::npos)
      << multi.error().message;
}

TEST(ChaosSchedule, RejectsNonFiniteAndOverflowingNumbers) {
  const char* bad[] = {
      "at 1s loss p=nan nodes=a",          // nan slips past a [0,1] check
      "at 1s loss p=-inf nodes=a",
      "at nan loss nodes=a p=0.1",
      "at inf loss nodes=a p=0.1",
      "at 1e999 loss nodes=a p=0.1",       // overflows a double
      "at 1e300s loss nodes=a p=0.1",      // past int64 microseconds
      "at 1s for nan loss nodes=a p=0.1",
      "at 1s for 1e300ms loss nodes=a p=0.1",
  };
  for (const char* text : bad) {
    const auto parsed = chaos::ChaosSchedule::parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.error().code, Errc::malformed) << text;
  }
  // A time near the int64 limit still parses, exactly.
  const auto far = chaos::ChaosSchedule::parse(
      "at 9000000000000s loss nodes=a p=0.1");
  ASSERT_TRUE(far.ok()) << far.error().message;
  ASSERT_EQ(far.value().events().size(), 1u);
  EXPECT_EQ(far.value().events()[0].at.as_micros(), 9'000'000'000'000'000'000);
}

// ------------------------------------------------------------- controller

class ChaosControllerTest : public ::testing::Test {
 protected:
  ChaosControllerTest() { session_ = directory_.create("room", {}, {}).take(); }

  void run_for(double seconds) {
    sim_.run_until(sim_.now() + sim::Duration::seconds(seconds));
  }

  /// Publish `count` deterministic single-or-multi-fragment blobs on a
  /// 50 ms period, digest-stamped so receivers can verify integrity.
  void publish_blobs(pubsub::SemanticPeer& publisher, int count,
                     std::size_t payload_bytes) {
    for (int i = 0; i < count; ++i) {
      sim_.schedule_after(
          sim::Duration::millis(50 * (i + 1)),
          [this, &publisher, i, payload_bytes] {
            Rng rng(derive_seed(1, 0xB10Bu, static_cast<std::uint64_t>(i)));
            serde::Bytes payload(payload_bytes);
            for (auto& byte : payload) {
              byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
            }
            pubsub::SemanticMessage message;
            message.event_type = "chaos.blob";
            message.content.set("chaos.digest",
                                std::to_string(fnv1a(
                                    std::span<const std::uint8_t>(payload))));
            message.content.set("chaos.id", static_cast<std::int64_t>(i));
            message.payload = serde::ByteChain(std::move(payload));
            (void)publisher.publish(std::move(message));
          });
    }
  }

  sim::Simulator sim_;
  net::Network network_{sim_, 7};
  core::SessionDirectory directory_;
  core::SessionInfo session_;
};

TEST_F(ChaosControllerTest, EmptyScheduleArmsToANoOp) {
  const net::NodeId a = network_.add_node("a");
  const net::NodeId b = network_.add_node("b");
  pubsub::SemanticPeer alice(network_, a, session_.group, 1,
                             {.port = session_.port});
  pubsub::SemanticPeer bob(network_, b, session_.group, 2,
                           {.port = session_.port});
  int delivered = 0;
  bob.on_message([&](const pubsub::SemanticMessage&,
                     const pubsub::MatchDecision&) { ++delivered; });

  chaos::ChaosController controller(network_);
  controller.arm(chaos::ChaosSchedule::parse("").value());
  publish_blobs(alice, 5, 64);
  run_for(2.0);

  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(controller.active_faults(), 0u);
  EXPECT_EQ(controller.stats().faults_injected, 0u);
}

TEST_F(ChaosControllerTest, BurstLossWindowDropsThenHeals) {
  const net::NodeId a = network_.add_node("a");
  const net::NodeId b = network_.add_node("b");
  pubsub::SemanticPeer alice(network_, a, session_.group, 1,
                             {.port = session_.port});
  pubsub::SemanticPeer bob(network_, b, session_.group, 2,
                           {.port = session_.port});
  int delivered = 0;
  bob.on_message([&](const pubsub::SemanticMessage&,
                     const pubsub::MatchDecision&) { ++delivered; });

  // p_gb=1, p_bg=0: the chain falls into the bad state on the first step
  // and stays, so the window is effectively a total blackout.
  chaos::ChaosController controller(network_);
  controller.arm(chaos::ChaosSchedule::parse(
                     "at 1s for 2s burst nodes=b p_gb=1 p_bg=0 loss_bad=1\n")
                     .value());

  publish_blobs(alice, 40, 64);  // one every 50ms through 2s
  run_for(0.9);
  const int before_window = delivered;
  EXPECT_GT(before_window, 0);
  EXPECT_EQ(network_.stats().datagrams_dropped_loss, 0u);

  run_for(2.0);  // now inside [1s, 3s): everything to b is lost
  EXPECT_EQ(controller.active_faults(), 1u);
  const auto dropped_in_window = network_.stats().datagrams_dropped_loss;
  EXPECT_GT(dropped_in_window, 0u);

  run_for(0.5);  // past the clear: link params restored
  EXPECT_EQ(controller.active_faults(), 0u);
  EXPECT_EQ(controller.stats().faults_injected, 1u);
  EXPECT_EQ(controller.stats().faults_cleared, 1u);

  publish_blobs(alice, 5, 64);
  const int after_heal = delivered;
  run_for(1.0);
  EXPECT_EQ(delivered, after_heal + 5);  // healthy again
  EXPECT_EQ(network_.stats().datagrams_dropped_loss, dropped_in_window);
}

TEST_F(ChaosControllerTest, PartitionDropsCrossingTrafficBothWays) {
  const net::NodeId a = network_.add_node("a");
  const net::NodeId b = network_.add_node("b");
  pubsub::SemanticPeer alice(network_, a, session_.group, 1,
                             {.port = session_.port});
  pubsub::SemanticPeer bob(network_, b, session_.group, 2,
                           {.port = session_.port});
  int delivered = 0;
  bob.on_message([&](const pubsub::SemanticMessage&,
                     const pubsub::MatchDecision&) { ++delivered; });

  chaos::ChaosController controller(network_);
  controller.arm(
      chaos::ChaosSchedule::parse("at 1s for 1s partition nodes=b\n").value());

  publish_blobs(alice, 30, 64);
  run_for(0.9);
  EXPECT_GT(delivered, 0);

  run_for(0.3);  // 1.2s: partitioned, pre-injection stragglers drained
  const int before = delivered;
  run_for(0.7);  // 1.9s: still inside the window
  EXPECT_EQ(delivered, before);  // nothing crossed
  EXPECT_GT(controller.stats().datagrams_dropped, 0u);
  EXPECT_GT(network_.stats().datagrams_dropped_fault, 0u);

  run_for(0.2);  // 2.1s: healed
  EXPECT_EQ(controller.active_faults(), 0u);
  publish_blobs(alice, 5, 64);
  run_for(1.0);
  EXPECT_EQ(delivered, before + 5);  // traffic crosses again
}

TEST_F(ChaosControllerTest, DuplicateStormIsAbsorbedByAtMostOnceDelivery) {
  const net::NodeId a = network_.add_node("a");
  const net::NodeId b = network_.add_node("b");
  pubsub::SemanticPeer alice(network_, a, session_.group, 1,
                             {.port = session_.port});
  pubsub::SemanticPeer bob(network_, b, session_.group, 2,
                           {.port = session_.port});
  int delivered = 0;
  bob.on_message([&](const pubsub::SemanticMessage&,
                     const pubsub::MatchDecision&) { ++delivered; });

  chaos::ChaosController controller(network_);
  controller.arm(
      chaos::ChaosSchedule::parse("at 0s duplicate p=1 skew=2ms\n").value());

  publish_blobs(alice, 20, 64);
  run_for(3.0);

  // Every datagram was delivered twice on the wire, exactly once to the
  // application.
  EXPECT_GT(controller.stats().datagrams_duplicated, 0u);
  EXPECT_EQ(delivered, 20);
}

TEST_F(ChaosControllerTest, CorruptionIsDetectedNeverDelivered) {
  const net::NodeId a = network_.add_node("a");
  const net::NodeId b = network_.add_node("b");
  pubsub::SemanticPeer alice(network_, a, session_.group, 1,
                             {.port = session_.port});
  pubsub::SemanticPeer bob(network_, b, session_.group, 2,
                           {.port = session_.port});
  int delivered = 0;
  int digest_mismatches = 0;
  bob.on_message([&](const pubsub::SemanticMessage& message,
                     const pubsub::MatchDecision&) {
    ++delivered;
    const pubsub::AttributeValue* stamped = message.content.find("chaos.digest");
    ASSERT_NE(stamped, nullptr);
    const auto stated = stamped->as_string();
    ASSERT_TRUE(stated.has_value());
    if (*stated != std::to_string(chain_digest(message.payload))) {
      ++digest_mismatches;
    }
  });

  auto& registry = telemetry::MetricsRegistry::global();
  const double detected_before = registry.read("rtp.corrupt_detected");

  chaos::ChaosController controller(network_);
  controller.arm(
      chaos::ChaosSchedule::parse("at 0s corrupt nodes=b p=0.5\n").value());

  publish_blobs(alice, 30, 4096);  // 3 fragments per object
  run_for(4.0);

  EXPECT_GT(controller.stats().datagrams_corrupted, 0u);
  // The RTP checksum caught every injected flip before reassembly...
  EXPECT_GT(registry.read("rtp.corrupt_detected"), detected_before);
  // ...so whatever was delivered is byte-exact. This is the integrity
  // invariant the harness asserts at scale.
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(digest_mismatches, 0);
}

TEST_F(ChaosControllerTest, UnknownScheduleNamesAreCountedNotFatal) {
  (void)network_.add_node("a");
  chaos::ChaosController controller(network_);
  controller.arm(chaos::ChaosSchedule::parse(
                     "at 0s for 1s loss nodes=ghost p=0.5\n"
                     "at 0s for 1s outage target=nobody\n")
                     .value());
  run_for(2.0);
  EXPECT_GE(controller.stats().unresolved_names, 2u);
  EXPECT_EQ(controller.stats().faults_cleared,
            controller.stats().faults_injected);
}

// -------------------------------------------- NACK scheduler under storm

/// The satellite property test: under a reorder + duplication storm the
/// selective-repeat repair path must still deliver every object, and
/// every delivered payload must be byte-identical to what a lossless run
/// delivers (same seeds => same payloads). With loss added, delivery may
/// shrink, but only to a cleanly counted subset — never to corrupted or
/// torn objects.
class ChaosStormTest : public ::testing::Test {
 protected:
  struct StormResult {
    std::map<std::int64_t, std::uint64_t> digests;  ///< id -> payload digest
    int deliveries = 0;  ///< handler invocations (dup visibility)
    std::uint64_t nacks = 0;
    std::uint64_t retransmissions = 0;
  };

  static constexpr int kObjects = 25;
  static constexpr std::size_t kPayloadBytes = 4096;  // multi-fragment

  /// One full publisher->subscriber run under `schedule_text`.
  StormResult run_storm(const std::string& schedule_text) {
    StormResult result;
    sim::Simulator sim;
    net::Network network(sim, 7);
    core::SessionDirectory directory;
    const core::SessionInfo session = directory.create("room", {}, {}).take();
    const net::NodeId a = network.add_node("a");
    const net::NodeId b = network.add_node("b");
    pubsub::PeerOptions options;
    options.port = session.port;
    options.nack_attempts = 6;  // storms need a deeper retry budget
    pubsub::SemanticPeer alice(network, a, session.group, 1, options);
    pubsub::SemanticPeer bob(network, b, session.group, 2, options);
    bob.on_message([&result](const pubsub::SemanticMessage& message,
                             const pubsub::MatchDecision&) {
      ++result.deliveries;
      const pubsub::AttributeValue* id = message.content.find("chaos.id");
      ASSERT_NE(id, nullptr);
      const auto number = id->as_number();
      ASSERT_TRUE(number.has_value());
      result.digests.emplace(static_cast<std::int64_t>(*number),
                             chain_digest(message.payload));
    });

    chaos::ChaosController controller(network, 0x570Bu);
    if (!schedule_text.empty()) {
      auto schedule = chaos::ChaosSchedule::parse(schedule_text);
      EXPECT_TRUE(schedule.ok());
      controller.arm(schedule.value());
    }

    for (int i = 0; i < kObjects; ++i) {
      sim.schedule_after(sim::Duration::millis(50 * (i + 1)), [&alice, i] {
        Rng rng(derive_seed(1, 0xB10Bu, static_cast<std::uint64_t>(i)));
        serde::Bytes payload(kPayloadBytes);
        for (auto& byte : payload) {
          byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        pubsub::SemanticMessage message;
        message.event_type = "chaos.blob";
        message.content.set("chaos.id", static_cast<std::int64_t>(i));
        message.payload = serde::ByteChain(std::move(payload));
        (void)alice.publish(std::move(message));
      });
    }
    sim.run_until(sim.now() + sim::Duration::seconds(10.0));

    result.nacks = bob.stats().nacks_sent;
    result.retransmissions = alice.stats().retransmissions;
    return result;
  }
};

TEST_F(ChaosStormTest, ReorderDuplicationStormDeliversEverythingIntact) {
  const StormResult lossless = run_storm("");
  ASSERT_EQ(lossless.digests.size(), static_cast<std::size_t>(kObjects));

  const StormResult storm = run_storm(
      "at 0s reorder p=0.6 delay=60ms\n"
      "at 0s duplicate p=0.5 skew=5ms\n");

  // Eventual delivery: reordering and duplication alone lose nothing.
  EXPECT_EQ(storm.digests.size(), static_cast<std::size_t>(kObjects));
  // At-most-once: the handler never saw an object twice.
  EXPECT_EQ(storm.deliveries, kObjects);
  // Byte-identical to the lossless run, object by object.
  for (const auto& [id, digest] : storm.digests) {
    const auto reference = lossless.digests.find(id);
    ASSERT_NE(reference, lossless.digests.end()) << "id " << id;
    EXPECT_EQ(digest, reference->second) << "id " << id;
  }
}

TEST_F(ChaosStormTest, StormPlusLossDegradesToCountedCleanSubset) {
  const StormResult lossless = run_storm("");
  const StormResult storm = run_storm(
      "at 0s reorder p=0.6 delay=60ms\n"
      "at 0s duplicate p=0.5 skew=5ms\n"
      "at 0s for 2s burst nodes=b p_gb=0.3 p_bg=0.2 loss_bad=1\n");

  // The repair path fought back...
  EXPECT_GT(storm.nacks, 0u);
  EXPECT_GT(storm.retransmissions, 0u);
  // ...and whatever it salvaged is byte-identical to the lossless run;
  // the rest is a clean, countable loss — not a torn delivery.
  ASSERT_LE(storm.digests.size(), static_cast<std::size_t>(kObjects));
  for (const auto& [id, digest] : storm.digests) {
    const auto reference = lossless.digests.find(id);
    ASSERT_NE(reference, lossless.digests.end()) << "id " << id;
    EXPECT_EQ(digest, reference->second) << "id " << id;
  }
  const std::size_t lost = static_cast<std::size_t>(kObjects) -
                           storm.digests.size();
  EXPECT_LT(lost, static_cast<std::size_t>(kObjects) / 2);  // not a rout
}

// ----------------------------------------------------- reassembly budget

TEST(ReassemblyBudget, EvictsStalestPendingObjectsPastByteBudget) {
  net::RtpReceiver::Options options;
  options.flush_after = sim::Duration::seconds(60);  // budget, not timer
  options.pending_byte_budget = 250;
  net::RtpReceiver receiver(options);
  int partials = 0;
  receiver.on_object([&](const net::RtpObject& object) {
    EXPECT_FALSE(object.complete);
    ++partials;
  });

  net::RtpPacketizer packetizer(7, 100);
  sim::TimePoint now{};
  for (int i = 0; i < 5; ++i) {
    serde::Bytes object(300);
    for (auto& byte : object) byte = static_cast<std::uint8_t>(i);
    const auto packets = packetizer.packetize_views(
        object, 96, static_cast<std::uint32_t>(i + 1));
    ASSERT_EQ(packets.size(), 3u);
    // Only the first fragment arrives: the object stays pending at 100
    // bytes each, so every third object pushes past the 250-byte budget.
    now = now + sim::Duration::millis(10);
    ASSERT_TRUE(receiver.ingest(packets[0], now).ok());
  }

  EXPECT_GT(receiver.stats().evicted, 0u);
  EXPECT_EQ(partials, static_cast<int>(receiver.stats().evicted));
  EXPECT_LE(receiver.pending_bytes(), options.pending_byte_budget);
}

TEST(ReassemblyBudget, ChecksumRejectsBitFlippedPacket) {
  auto& registry = telemetry::MetricsRegistry::global();
  const double detected_before = registry.read("rtp.corrupt_detected");

  net::RtpPacket packet;
  packet.ssrc = 7;
  packet.timestamp = 1;
  packet.payload_type = 96;
  serde::Bytes payload(64, 0xAB);
  packet.payload = payload;
  serde::Bytes wire = packet.wire().gather();
  ASSERT_TRUE(net::RtpPacket::decode(serde::ByteChain(wire)).ok());

  wire[wire.size() - 1] ^= 0x04;  // one bit, deep in the payload
  EXPECT_FALSE(net::RtpPacket::decode(serde::ByteChain(wire)).ok());
  EXPECT_GT(registry.read("rtp.corrupt_detected"), detected_before);
}

// ---------------------------------------------------------------- harness

TEST(ResilienceHarness, CannedScheduleHoldsEveryInvariant) {
  const auto schedule =
      chaos::ChaosSchedule::parse(chaos::ResilienceHarness::canned_schedule());
  ASSERT_TRUE(schedule.ok());

  chaos::HarnessOptions options;
  options.seed = 11;
  chaos::ResilienceHarness harness(options);
  const chaos::ResilienceReport report = harness.run(schedule.value());

  EXPECT_TRUE(report.ok()) << report.to_text();
  EXPECT_EQ(report.integrity_failures, 0u);
  EXPECT_EQ(report.faults_injected, schedule.value().size());
  EXPECT_EQ(report.faults_cleared, report.faults_injected);
  EXPECT_GT(report.alerts_raised, 0u);
  EXPECT_EQ(report.alerts_active_at_end, 0u);
  EXPECT_GT(report.delivered, 0u);
  EXPECT_GT(report.resyncs, 0u);  // the crashed client came back
  // The report serialises (smoke: both forms non-empty and JSON-shaped).
  EXPECT_FALSE(report.to_text().empty());
  const std::string json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"fingerprint\""), std::string::npos);
}

TEST(ResilienceHarness, SameSeedRunsAreBitIdentical) {
  const auto schedule =
      chaos::ChaosSchedule::parse(chaos::ResilienceHarness::canned_schedule());
  ASSERT_TRUE(schedule.ok());

  chaos::HarnessOptions options;
  options.seed = 23;
  const chaos::ResilienceReport first =
      chaos::ResilienceHarness(options).run(schedule.value());
  const chaos::ResilienceReport second =
      chaos::ResilienceHarness(options).run(schedule.value());
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.delivered, second.delivered);
  EXPECT_EQ(first.nacks_sent, second.nacks_sent);
  EXPECT_EQ(first.alerts_raised, second.alerts_raised);

  options.seed = 24;
  const chaos::ResilienceReport other =
      chaos::ResilienceHarness(options).run(schedule.value());
  EXPECT_NE(other.fingerprint, first.fingerprint);
}

TEST(ResilienceHarness, EmptyScheduleRunsCleanWithoutAlerts) {
  chaos::HarnessOptions options;
  options.duration_s = 12.0;
  options.settle_s = 2.0;
  options.expect_alerts = false;  // nothing to detect
  chaos::ResilienceHarness harness(options);
  const chaos::ResilienceReport report =
      harness.run(chaos::ChaosSchedule::parse("").value());
  EXPECT_TRUE(report.ok()) << report.to_text();
  EXPECT_EQ(report.faults_injected, 0u);
  EXPECT_EQ(report.integrity_failures, 0u);
  EXPECT_GT(report.delivered, 0u);
}

}  // namespace
}  // namespace collabqos
