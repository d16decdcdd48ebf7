#include <gtest/gtest.h>

#include "collabqos/net/network.hpp"

namespace collabqos::net {
namespace {

serde::Bytes bytes_of(std::string_view text) {
  return serde::Bytes(text.begin(), text.end());
}

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  Network network_{sim_, /*seed=*/99};
};

TEST_F(NetworkTest, UnicastDelivers) {
  const NodeId a = network_.add_node("a");
  const NodeId b = network_.add_node("b");
  auto sender = network_.bind(a, 1000).take();
  auto receiver = network_.bind(b, 2000).take();
  std::vector<Datagram> got;
  receiver->on_receive([&](const Datagram& d) { got.push_back(d); });

  ASSERT_TRUE(sender->send({b, 2000}, bytes_of("ping")).ok());
  sim_.run_all();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, bytes_of("ping"));
  EXPECT_EQ(got[0].source, (Address{a, 1000}));
  EXPECT_FALSE(got[0].via_multicast);
}

TEST_F(NetworkTest, DeliveryTakesLinkLatency) {
  LinkParams params;
  params.base_latency = sim::Duration::millis(5);
  const NodeId a = network_.add_node("a", params);
  const NodeId b = network_.add_node("b", params);
  auto sender = network_.bind(a).take();
  auto receiver = network_.bind(b, 7).take();
  sim::TimePoint arrival{};
  receiver->on_receive([&](const Datagram&) { arrival = sim_.now(); });
  ASSERT_TRUE(sender->send({b, 7}, bytes_of("x")).ok());
  sim_.run_all();
  // Uplink + downlink latency = 10ms minimum.
  EXPECT_GE(arrival.as_micros(), 10'000);
}

TEST_F(NetworkTest, BandwidthAddsSerializationDelay) {
  LinkParams slow;
  slow.bandwidth_bps = 8000.0;  // 1 KB/s
  slow.base_latency = sim::Duration::micros(0);
  const NodeId a = network_.add_node("a", slow);
  const NodeId b = network_.add_node("b", slow);
  auto sender = network_.bind(a).take();
  auto receiver = network_.bind(b, 7).take();
  sim::TimePoint arrival{};
  receiver->on_receive([&](const Datagram&) { arrival = sim_.now(); });
  ASSERT_TRUE(sender->send({b, 7}, serde::Bytes(1000, 0x55)).ok());
  sim_.run_all();
  // 1000 bytes at 1KB/s on two hops = ~2 seconds.
  EXPECT_NEAR(arrival.as_seconds(), 2.0, 0.1);
}

TEST_F(NetworkTest, SendToUnknownNodeIsCountedDropped) {
  const NodeId a = network_.add_node("a");
  auto sender = network_.bind(a).take();
  ASSERT_TRUE(sender->send({make_node(777), 1}, bytes_of("x")).ok());
  sim_.run_all();
  EXPECT_EQ(network_.stats().datagrams_dropped_unbound, 1u);
  EXPECT_EQ(network_.stats().datagrams_delivered, 0u);
}

TEST_F(NetworkTest, SendToUnboundPortDropsSilently) {
  const NodeId a = network_.add_node("a");
  const NodeId b = network_.add_node("b");
  auto sender = network_.bind(a).take();
  ASSERT_TRUE(sender->send({b, 4242}, bytes_of("x")).ok());
  sim_.run_all();
  EXPECT_EQ(network_.stats().datagrams_dropped_unbound, 1u);
}

TEST_F(NetworkTest, OversizeDatagramRejected) {
  const NodeId a = network_.add_node("a");
  auto sender = network_.bind(a).take();
  const Status status =
      sender->send({a, 1}, serde::Bytes(Network::kMaxDatagram + 1, 0));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Errc::out_of_range);
}

TEST_F(NetworkTest, PortConflictRejected) {
  const NodeId a = network_.add_node("a");
  auto first = network_.bind(a, 500).take();
  auto second = network_.bind(a, 500);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.code(), Errc::conflict);
}

TEST_F(NetworkTest, EphemeralPortsAreDistinct) {
  const NodeId a = network_.add_node("a");
  auto e1 = network_.bind(a).take();
  auto e2 = network_.bind(a).take();
  EXPECT_NE(e1->address().port, e2->address().port);
  EXPECT_GE(e1->address().port, 49152);
}

TEST_F(NetworkTest, RebindAfterCloseWorks) {
  const NodeId a = network_.add_node("a");
  {
    auto endpoint = network_.bind(a, 900).take();
  }
  auto again = network_.bind(a, 900);
  EXPECT_TRUE(again.ok());
}

TEST_F(NetworkTest, BindUnknownNodeFails) {
  auto result = network_.bind(make_node(42));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), Errc::no_such_object);
}

TEST_F(NetworkTest, MulticastReachesAllMembersExceptSender) {
  const NodeId a = network_.add_node("a");
  const NodeId b = network_.add_node("b");
  const NodeId c = network_.add_node("c");
  const GroupId group = make_group(1);
  auto pa = network_.bind(a, 5004).take();
  auto pb = network_.bind(b, 5004).take();
  auto pc = network_.bind(c, 5004).take();
  for (auto* endpoint : {pa.get(), pb.get(), pc.get()}) {
    ASSERT_TRUE(endpoint->join(group).ok());
  }
  int a_got = 0, b_got = 0, c_got = 0;
  pa->on_receive([&](const Datagram&) { ++a_got; });
  pb->on_receive([&](const Datagram&) { ++b_got; });
  pc->on_receive([&](const Datagram&) { ++c_got; });

  ASSERT_TRUE(pa->send_multicast(group, bytes_of("hi")).ok());
  sim_.run_all();
  EXPECT_EQ(a_got, 0);  // loopback off by default
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);
}

TEST_F(NetworkTest, MulticastLoopbackOptIn) {
  const NodeId a = network_.add_node("a");
  const GroupId group = make_group(1);
  auto pa = network_.bind(a, 5004).take();
  ASSERT_TRUE(pa->join(group).ok());
  pa->set_multicast_loopback(true);
  int got = 0;
  pa->on_receive([&](const Datagram& d) {
    ++got;
    EXPECT_TRUE(d.via_multicast);
    EXPECT_EQ(raw(d.group), raw(group));
  });
  ASSERT_TRUE(pa->send_multicast(group, bytes_of("self")).ok());
  sim_.run_all();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkTest, LeaveStopsDelivery) {
  const NodeId a = network_.add_node("a");
  const NodeId b = network_.add_node("b");
  const GroupId group = make_group(9);
  auto pa = network_.bind(a, 5004).take();
  auto pb = network_.bind(b, 5004).take();
  ASSERT_TRUE(pb->join(group).ok());
  int got = 0;
  pb->on_receive([&](const Datagram&) { ++got; });
  ASSERT_TRUE(pa->send_multicast(group, bytes_of("1")).ok());
  sim_.run_all();
  ASSERT_TRUE(pb->leave(group).ok());
  ASSERT_TRUE(pa->send_multicast(group, bytes_of("2")).ok());
  sim_.run_all();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkTest, DoubleJoinAndLeaveErrors) {
  const NodeId a = network_.add_node("a");
  const GroupId group = make_group(3);
  auto pa = network_.bind(a).take();
  EXPECT_TRUE(pa->join(group).ok());
  EXPECT_FALSE(pa->join(group).ok());
  EXPECT_TRUE(pa->leave(group).ok());
  EXPECT_FALSE(pa->leave(group).ok());
}

TEST_F(NetworkTest, LossProbabilityDropsApproximately) {
  LinkParams lossy;
  lossy.loss_probability = 0.3;
  const NodeId a = network_.add_node("a");           // clean uplink
  const NodeId b = network_.add_node("b", lossy);    // lossy downlink
  auto sender = network_.bind(a).take();
  auto receiver = network_.bind(b, 7).take();
  int got = 0;
  receiver->on_receive([&](const Datagram&) { ++got; });
  constexpr int kSends = 2000;
  for (int i = 0; i < kSends; ++i) {
    ASSERT_TRUE(sender->send({b, 7}, bytes_of("x")).ok());
  }
  sim_.run_all();
  EXPECT_NEAR(static_cast<double>(got) / kSends, 0.7, 0.04);
  EXPECT_GT(network_.stats().datagrams_dropped_loss, 0u);
}

TEST_F(NetworkTest, SetLinkParamsTakesEffect) {
  const NodeId a = network_.add_node("a");
  const NodeId b = network_.add_node("b");
  auto sender = network_.bind(a).take();
  auto receiver = network_.bind(b, 7).take();
  int got = 0;
  receiver->on_receive([&](const Datagram&) { ++got; });

  LinkParams dead;
  dead.loss_probability = 1.0;
  ASSERT_TRUE(network_.set_link_params(b, dead).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sender->send({b, 7}, bytes_of("x")).ok());
  }
  sim_.run_all();
  EXPECT_EQ(got, 0);

  ASSERT_TRUE(network_.set_link_params(b, LinkParams{}).ok());
  ASSERT_TRUE(sender->send({b, 7}, bytes_of("x")).ok());
  sim_.run_all();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkTest, StatsCountBytes) {
  const NodeId a = network_.add_node("a");
  const NodeId b = network_.add_node("b");
  auto sender = network_.bind(a).take();
  auto receiver = network_.bind(b, 7).take();
  receiver->on_receive([](const Datagram&) {});
  ASSERT_TRUE(sender->send({b, 7}, serde::Bytes(123, 1)).ok());
  sim_.run_all();
  EXPECT_EQ(network_.stats().bytes_delivered, 123u);
  EXPECT_EQ(network_.stats().datagrams_sent, 1u);
  EXPECT_EQ(network_.stats().datagrams_delivered, 1u);
}

TEST(LinkModel, ZeroLossAlwaysDelivers) {
  LinkModel link(LinkParams{}, Rng(1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(link.transmit(100).delivered);
  }
}

TEST(LinkModel, FullLossNeverDelivers) {
  LinkParams params;
  params.loss_probability = 1.0;
  LinkModel link(params, Rng(1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(link.transmit(100).delivered);
  }
}

TEST(LinkModel, JitterBoundsDelay) {
  LinkParams params;
  params.base_latency = sim::Duration::millis(10);
  params.jitter = sim::Duration::millis(2);
  params.bandwidth_bps = 0.0;  // disable serialization term
  LinkModel link(params, Rng(5));
  for (int i = 0; i < 1000; ++i) {
    const LinkVerdict verdict = link.transmit(100);
    ASSERT_TRUE(verdict.delivered);
    EXPECT_GE(verdict.delay.as_micros(), 8'000);
    EXPECT_LE(verdict.delay.as_micros(), 12'000);
  }
}

}  // namespace
}  // namespace collabqos::net
