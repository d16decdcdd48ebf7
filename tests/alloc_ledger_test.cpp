// Exact allocation ledger for the receive path. A counting global
// operator new tallies every heap allocation made while the simulator
// delivers datagrams to a warmed-up receiver peer: RTP decode,
// reassembly, message decode, selector match and the hand-off to the
// message handler. The sender's publish runs outside the count. It also
// pins the allocations of an SNMP GET and GETBULK round trip and of warm
// codec and sketch calls, and tallies the bytes that hostile counts in a
// few bytes of input can make a decoder reserve.
//
// The count does not drift with host speed, so it backs performance
// claims that timing alone cannot. Built with GCC only: the count is a
// property of libstdc++'s containers and of this replacement operator
// new, which sanitizer runtimes also replace.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "collabqos/media/codec.hpp"
#include "collabqos/media/media_object.hpp"
#include "collabqos/media/sketch.hpp"
#include "collabqos/net/network.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/pubsub/roster.hpp"
#include "collabqos/snmp/host_mib.hpp"
#include "collabqos/snmp/manager.hpp"
#include "collabqos/snmp/telemetry_mib.hpp"

namespace {
std::size_t g_allocations = 0;
std::size_t g_bytes = 0;
bool g_counting = false;

void* counted_alloc(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
    g_bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting) {
    ++g_allocations;
    g_bytes += size;
  }
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p =
          std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace collabqos::pubsub {
namespace {

constexpr net::GroupId kGroup = net::make_group(0xE0000002);

/// Allocations per message delivered to the handler. The one left is the
/// decoded content descriptor's entry vector. Before the flat receiver
/// tables and inline chain slices the same session measured 14.02.
constexpr double kBudgetPerDelivery = 1.0;

/// A chatter-style note: an audience selector the receiver's profile
/// admits, a three-attribute content descriptor and a short text body.
SemanticMessage note(const Selector& audience, int index) {
  SemanticMessage message;
  message.selector = audience;
  message.content.set("topic", "note");
  message.content.set("media.modality", "text");
  std::string id = "o";
  id += std::to_string(index);
  message.content.set("object.id", id);
  message.event_type = "media.share";
  const std::string body =
      "status clear units perimeter casualty route supply radio relay "
      "standby triage sector north hydrant ambulance";
  message.payload =
      serde::ByteChain(serde::Bytes(body.begin(), body.end()));
  return message;
}

TEST(ReceivePathAllocations, SingleFragmentDeliveryStaysWithinBudget) {
  sim::Simulator simulator;
  net::Network network(simulator, 3);
  SemanticPeer sender(network, network.add_node("sender"), kGroup, 1);
  SemanticPeer receiver(network, network.add_node("receiver"), kGroup, 2);
  receiver.profile().set("role", "medic");
  std::size_t delivered = 0;
  receiver.on_message(
      [&](const SemanticMessage&, const MatchDecision&) { ++delivered; });
  const Selector audience = Selector::parse("role == 'medic'").value();

  // Warm-up past the receiver's 4096-object at-most-once memory, so every
  // table on the path has reached its steady-state size.
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(sender.publish(note(audience, i)).ok());
    simulator.run_all();
  }
  ASSERT_EQ(delivered, 5000u);

  constexpr int kMeasured = 1000;
  std::size_t allocations = 0;
  for (int i = 0; i < kMeasured; ++i) {
    ASSERT_TRUE(sender.publish(note(audience, 5000 + i)).ok());
    g_allocations = 0;
    g_counting = true;
    simulator.run_all();
    g_counting = false;
    allocations += g_allocations;
  }
  ASSERT_EQ(delivered, 5000u + kMeasured);
  const double per_delivery =
      static_cast<double>(allocations) / static_cast<double>(kMeasured);
  std::printf("receive path: %zu allocations over %d deliveries (%.2f each)\n",
              allocations, kMeasured, per_delivery);
  EXPECT_LE(per_delivery, kBudgetPerDelivery);
}

// A 4-byte roster update claiming 65536 entries and carrying none. The
// client drops it; the count must not size a reservation first (it once
// reserved 65536 entries, about 4.5 MiB).
TEST(HostileCountAllocations, RosterUpdateReservesOnlyWhatItsBytesHold) {
  sim::Simulator simulator;
  net::Network network(simulator, 5);
  baseline::NamedClient client(network, network.add_node("client"), "c0",
                               net::Address{net::make_node(99), 7000});
  auto raw = network.bind(network.add_node("raw"), 7001).take();
  ASSERT_TRUE(
      raw->send(client.address(), serde::Bytes{0xB2, 0x80, 0x80, 0x04}).ok());
  g_bytes = 0;
  g_counting = true;
  simulator.run_all();
  g_counting = false;
  std::printf("hostile roster update: %zu bytes allocated\n", g_bytes);
  EXPECT_EQ(client.stats().roster_updates, 0u);
  EXPECT_LT(g_bytes, 4096u);
}

// A 10-byte image media object claiming 4096 packets and carrying none.
TEST(HostileCountAllocations, MediaPacketCountReservesOnlyWhatItsBytesHold) {
  // magic, image tag, 1x1, 1 channel, no description, no sketch, empty
  // header, then a packet count of 4096.
  const serde::Bytes bytes = {0x4D, 3, 1, 1, 1, 0, 0, 0, 0x80, 0x20};
  g_bytes = 0;
  g_counting = true;
  const auto decoded = media::MediaObject::decode(
      std::span<const std::uint8_t>(bytes));
  g_counting = false;
  std::printf("hostile media object: %zu bytes allocated\n", g_bytes);
  EXPECT_FALSE(decoded.ok());
  EXPECT_LT(g_bytes, 1024u);
}

}  // namespace
}  // namespace collabqos::pubsub

namespace collabqos::snmp {
namespace {

/// A manager and an agent one hop apart. The agent runs the host's
/// instrumentation and exports a registry of 40 families whose names,
/// like the framework's own, are longer than a short-string buffer.
class SnmpRoundTrip {
 public:
  SnmpRoundTrip() {
    const net::NodeId host_node = network_.add_node("host");
    agent_node_ = host_node;
    agent_ = std::make_unique<Agent>(network_, host_node, "public", "rw");
    manager_ = std::make_unique<Manager>(network_, network_.add_node("mgmt"));
    install_host_instrumentation(*agent_, host_, simulator_);
    install_interface_instrumentation(*agent_, network_, host_node);
    for (int i = 0; i < 40; ++i) {
      (void)registry_.counter("ledger.family_" + std::to_string(100 + i));
    }
    install_telemetry_instrumentation(*agent_, registry_);
  }

  /// Allocations made by `rounds` round trips after `warm_up` unmeasured
  /// ones: the request `issue` sends (it counts only its manager call,
  /// not the building of the call's arguments), then the simulator run
  /// until the callback has the response.
  template <typename Issue>
  std::size_t allocations(Issue issue, int warm_up, int rounds) {
    std::size_t total = 0;
    for (int i = 0; i < warm_up + rounds; ++i) {
      std::size_t answered = 0;
      const bool counted = i >= warm_up;
      g_allocations = 0;
      issue(*manager_, agent_node_, counted,
            [&answered](Result<Pdu> response) {
              if (response.ok()) answered += response.value().bindings.size();
            });
      g_counting = counted;
      simulator_.run_all();
      g_counting = false;
      if (counted) total += g_allocations;
      EXPECT_GT(answered, 0u);
    }
    return total;
  }

 private:
  sim::Simulator simulator_;
  net::Network network_{simulator_, 5};
  sim::Host host_{simulator_, "host"};
  telemetry::MetricsRegistry registry_;
  net::NodeId agent_node_{};
  std::unique_ptr<Agent> agent_;
  std::unique_ptr<Manager> manager_;
};

// Exact allocations of one state-poll GET (the five extension objects)
// and one 16-repetition GETBULK of the telemetry subtree, manager request
// to manager callback, network delivery included. Each is the encoded
// request and response (a buffer and its shared owner each), the two
// deliveries' events and the response's decoded varbind list. Before
// the one-pass encoder, inline OIDs and the flat MIB, the same round
// trips made 237 and 451.
constexpr std::size_t kGetAllocations = 7;
constexpr std::size_t kBulkAllocations = 7;
TEST(SnmpAllocations, GetAndBulkRoundTripsArePinned) {
  SnmpRoundTrip stack;
  constexpr int kRounds = 50;
  const std::size_t get = stack.allocations(
      [](Manager& manager, net::NodeId agent, bool counted,
         Manager::Callback done) {
        std::vector<Oid> oids = {oids::tassl_cpu_load(),
                                 oids::tassl_page_faults(),
                                 oids::tassl_free_memory(),
                                 oids::tassl_if_utilization(),
                                 oids::tassl_bandwidth()};
        g_counting = counted;
        manager.get(agent, "public", std::move(oids), std::move(done));
        g_counting = false;
      },
      3, kRounds);
  const std::size_t bulk = stack.allocations(
      [](Manager& manager, net::NodeId agent, bool counted,
         Manager::Callback done) {
        std::vector<Oid> oids = {oids::tassl_telemetry_root()};
        g_counting = counted;
        manager.get_bulk(agent, "public", std::move(oids), 16,
                         std::move(done));
        g_counting = false;
      },
      3, kRounds);
  std::printf("snmp: GET round trip %.2f allocations, GETBULK(16) %.2f\n",
              static_cast<double>(get) / kRounds,
              static_cast<double>(bulk) / kRounds);
  EXPECT_EQ(get, kGetAllocations * kRounds);
  EXPECT_EQ(bulk, kBulkAllocations * kRounds);
}

}  // namespace
}  // namespace collabqos::snmp

namespace collabqos::media {
namespace {

struct Tally {
  std::size_t allocations = 0;
  std::size_t bytes = 0;
  bool operator==(const Tally&) const = default;
};

void PrintTo(const Tally& tally, std::ostream* out) {
  *out << tally.allocations << " allocations, " << tally.bytes << " bytes";
}

/// Allocations made by one call of `f`.
template <typename F>
Tally tally(F&& f) {
  g_allocations = 0;
  g_bytes = 0;
  g_counting = true;
  f();
  g_counting = false;
  return {g_allocations, g_bytes};
}

/// perfbench's imagery scene: 256 x 256 grayscale.
Image imagery_scene() {
  return render_scene(make_crisis_scene(256, 256, 1), 1);
}

// Warm calls on perfbench's imagery scene take every image-sized
// temporary from the thread's scratch. What they allocate is their output
// and a few small vectors: encode its passes, packets and header; decode
// the 65,536-byte image; the sketch its decimated edge map, run-length
// code and description. Before the scratch the same calls made 108
// allocations of 1,312,796 bytes (encode), 16 of 934,384 (decode, either
// prefix) and 25 of 280,269 (sketch).
constexpr Tally kEncode{100, 116764};
constexpr Tally kDecode16{10, 66032};
constexpr Tally kDecode1{10, 66032};
constexpr Tally kSketch{24, 18125};

TEST(CodecAllocations, WarmCallsAllocateOnlyTheirOutput) {
  const Image scene = imagery_scene();
  const EncodedImage encoded = encode_progressive(scene);
  ASSERT_EQ(encoded.packets.size(), 16u);
  (void)decode_progressive(encoded, 16);
  (void)extract_sketch(scene, "overview");

  const Tally encode = tally([&] { (void)encode_progressive(scene); });
  const Tally decode16 = tally([&] {
    ASSERT_TRUE(decode_progressive(encoded, 16).ok());
  });
  const Tally decode1 = tally([&] {
    ASSERT_TRUE(decode_progressive(encoded, 1).ok());
  });
  const Tally sketch = tally([&] { (void)extract_sketch(scene, "overview"); });
  std::printf(
      "codec: encode %zu allocations (%zu B), decode 16 packets %zu (%zu B), "
      "1 packet %zu (%zu B), sketch %zu (%zu B)\n",
      encode.allocations, encode.bytes, decode16.allocations, decode16.bytes,
      decode1.allocations, decode1.bytes, sketch.allocations, sketch.bytes);
  EXPECT_EQ(encode, kEncode);
  EXPECT_EQ(decode16, kDecode16);
  EXPECT_EQ(decode1, kDecode1);
  EXPECT_EQ(sketch, kSketch);
}

// A call above the kept bound frees the scratch as it returns, so that a
// large or hostile header cannot pin its buffers on the thread. The next
// imagery decode grows the scratch again; the one after it is warm.
TEST(CodecAllocations, OversizeCallReleasesItsScratch) {
  const Image scene = imagery_scene();
  const EncodedImage encoded = encode_progressive(scene);
  // 1024 x 1024 samples: above the bound of a 512 x 512 colour image.
  const EncodedImage large =
      encode_progressive(render_scene(make_crisis_scene(1024, 1024, 1), 1));
  (void)decode_progressive(encoded, 16);
  const Tally warm = tally([&] {
    ASSERT_TRUE(decode_progressive(encoded, 16).ok());
  });
  EXPECT_EQ(warm, kDecode16);

  ASSERT_TRUE(decode_progressive(large, 1).ok());
  const Tally regrown = tally([&] {
    ASSERT_TRUE(decode_progressive(encoded, 16).ok());
  });
  // The scratch of 65,536 samples: samples, Haar plane and magnitudes of
  // 4 bytes each, signs of 1, and two bitmaps of 1,024 words.
  constexpr std::size_t kScratchBytes = 65536 * (4 + 4 + 4 + 1) + 2 * 1024 * 8;
  EXPECT_EQ(regrown.allocations, warm.allocations + 6);
  EXPECT_EQ(regrown.bytes, warm.bytes + kScratchBytes);
  const Tally again = tally([&] {
    ASSERT_TRUE(decode_progressive(encoded, 16).ok());
  });
  EXPECT_EQ(again, warm);
}

}  // namespace
}  // namespace collabqos::media

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
