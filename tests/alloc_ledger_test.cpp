// Exact allocation ledger for the receive path. A counting global
// operator new tallies every heap allocation made while the simulator
// delivers datagrams to a warmed-up receiver peer: RTP decode,
// reassembly, message decode, selector match and the hand-off to the
// message handler. The sender's publish runs outside the count. It also
// tallies the bytes that hostile counts in a few bytes of input can make
// a decoder reserve.
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

#include "collabqos/media/media_object.hpp"
#include "collabqos/net/network.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/pubsub/roster.hpp"

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

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
