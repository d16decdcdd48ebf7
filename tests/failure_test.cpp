// Failure injection: components die, links rot, input is garbage — the
// framework must degrade predictably, never crash or wedge.
#include <gtest/gtest.h>

#include <memory>

#include "collabqos/app/image_viewer.hpp"
#include "collabqos/core/basestation_peer.hpp"
#include "collabqos/core/client.hpp"
#include "collabqos/core/thin_client.hpp"
#include "collabqos/snmp/host_mib.hpp"

namespace collabqos {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() { session_ = directory_.create("room", {}, {}).take(); }

  void run_for(double seconds) {
    sim_.run_until(sim_.now() + sim::Duration::seconds(seconds));
  }

  sim::Simulator sim_;
  net::Network network_{sim_, 13};
  core::SessionDirectory directory_;
  core::SessionInfo session_;
};

TEST_F(FailureTest, AgentDeathMakesStateStaleNotFatal) {
  const net::NodeId node = network_.add_node("ws");
  sim::Host host(sim_, "ws");
  auto agent = std::make_unique<snmp::Agent>(network_, node, "public", "rw");
  snmp::install_host_instrumentation(*agent, host, sim_);
  snmp::install_interface_instrumentation(*agent, network_, node);
  snmp::Manager manager(network_, node);

  core::ClientConfig config;
  config.name = "ws";
  core::InferenceEngine engine(core::QoSContract{},
                               core::PolicyDatabase::with_defaults());
  core::CollaborationClient client(network_, node, session_, 1, &manager,
                                   std::move(engine), config);
  run_for(2.0);
  ASSERT_TRUE(client.system_state()->fresh());

  // The embedded agent dies (process crash): polls start timing out.
  agent.reset();
  run_for(5.0);
  EXPECT_FALSE(client.system_state()->fresh());
  EXPECT_GT(client.system_state()->failures(), 0u);
  // The client still functions with its last-known decision.
  EXPECT_GE(client.last_decision().packets, 0);
}

TEST_F(FailureTest, WrongCommunityNeverFreshens) {
  const net::NodeId node = network_.add_node("ws");
  sim::Host host(sim_, "ws");
  snmp::Agent agent(network_, node, "public", "rw");
  snmp::install_host_instrumentation(agent, host, sim_);
  snmp::Manager manager(network_, node);
  core::SystemStateOptions options;
  options.community = "WRONG";
  core::SystemStateInterface state(manager, node, sim_, options);
  state.start();
  run_for(3.0);
  EXPECT_FALSE(state.fresh());
  EXPECT_GT(state.failures(), 0u);
  EXPECT_GE(agent.stats().auth_failures, 1u);
}

TEST_F(FailureTest, GarbageDatagramsDoNotCrashPeers) {
  const net::NodeId a = network_.add_node("a");
  const net::NodeId b = network_.add_node("b");
  pubsub::SemanticPeer peer(network_, b, session_.group, 2,
                            {.port = session_.port});
  int delivered = 0;
  peer.on_message([&](const pubsub::SemanticMessage&,
                      const pubsub::MatchDecision&) { ++delivered; });
  auto hose = network_.bind(a).take();
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    serde::Bytes junk(static_cast<std::size_t>(rng.uniform_int(1, 64)));
    for (auto& byte : junk) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    ASSERT_TRUE(hose->send(peer.address(), std::move(junk)).ok());
  }
  run_for(2.0);
  EXPECT_EQ(delivered, 0);
  EXPECT_GT(peer.stats().undecodable, 0u);
}

TEST_F(FailureTest, GarbageDatagramsDoNotCrashAgent) {
  const net::NodeId node = network_.add_node("ws");
  snmp::Agent agent(network_, node, "public", "rw");
  agent.mib().add_scalar(snmp::Oid{1, 1}, snmp::Value::integer(1));
  const net::NodeId attacker = network_.add_node("x");
  auto hose = network_.bind(attacker).take();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        hose->send({node, snmp::kAgentPort}, serde::Bytes{0xFF, 0x00, 0x42})
            .ok());
  }
  run_for(1.0);
  EXPECT_EQ(agent.stats().malformed, 100u);
  EXPECT_EQ(agent.stats().responses, 0u);
  // The agent still answers a well-formed request afterwards.
  snmp::Manager manager(network_, attacker);
  Result<snmp::Pdu> response = Error{Errc::internal, ""};
  manager.get(node, "public", {snmp::Oid{1, 1}},
              [&](Result<snmp::Pdu> r) { response = std::move(r); });
  run_for(2.0);
  EXPECT_TRUE(response.ok());
}

TEST_F(FailureTest, TruncatedRtpFragmentsAreContained) {
  const net::NodeId a = network_.add_node("a");
  const net::NodeId b = network_.add_node("b");
  pubsub::SemanticPeer alice(network_, a, session_.group, 1,
                             {.port = session_.port});
  pubsub::SemanticPeer bob(network_, b, session_.group, 2,
                           {.port = session_.port});
  int delivered = 0;
  bob.on_message([&](const pubsub::SemanticMessage&,
                     const pubsub::MatchDecision&) { ++delivered; });
  // Craft a valid RTP packet then truncate its payload mid-blob.
  net::RtpPacketizer packetizer(1, 100);
  auto packets = packetizer.packetize_views(serde::Bytes(300, 0x11), 96, 1);
  serde::Bytes wire = packets[0].wire().gather();
  wire.resize(wire.size() - 20);
  auto hose = network_.bind(a).take();
  ASSERT_TRUE(hose->send(bob.address(), std::move(wire)).ok());
  run_for(1.0);
  EXPECT_EQ(delivered, 0);
  EXPECT_GE(bob.stats().undecodable, 1u);
}

TEST_F(FailureTest, BaseStationDetachMidSessionStopsForwarding) {
  core::BaseStationOptions options;
  options.channel.noise_kappa_db = 70.0;
  options.radio.power_control_enabled = false;
  core::BaseStationPeer bs(network_, network_.add_node("bs"), session_, 900,
                           options);
  core::ThinClientConfig config;
  config.name = "palm";
  config.position = {20.0, 0.0};
  core::ThinClient thin(network_, network_.add_node("palm"), session_,
                        wireless::make_station(1), 101, config);
  ASSERT_TRUE(thin.attach(bs).ok());

  core::ClientConfig wired_config;
  wired_config.name = "wired";
  core::InferenceEngine engine(core::QoSContract{},
                               core::PolicyDatabase::with_defaults());
  core::CollaborationClient wired(network_, network_.add_node("wired"),
                                  session_, 1, nullptr, std::move(engine),
                                  wired_config);
  app::ImageViewer viewer(wired);
  const media::Image image =
      render_scene(media::make_crisis_scene(64, 64, 1));
  ASSERT_TRUE(viewer.share(image, "a", "first").ok());
  run_for(2.0);
  ASSERT_EQ(thin.received_by_modality().count(media::Modality::image), 1u);

  ASSERT_TRUE(thin.detach().ok());
  ASSERT_TRUE(viewer.share(image, "b", "second").ok());
  run_for(2.0);
  // Nothing further arrives after detach.
  EXPECT_EQ(thin.received_by_modality().at(media::Modality::image), 1u);
  // Double-detach is a clean error.
  EXPECT_FALSE(thin.detach().ok());
}

TEST_F(FailureTest, BatteryDeathSilencesThinClient) {
  core::BaseStationOptions options;
  options.channel.noise_kappa_db = 70.0;
  options.radio.power_control_enabled = false;
  core::BaseStationPeer bs(network_, network_.add_node("bs"), session_, 900,
                           options);
  core::ThinClientConfig config;
  config.name = "palm";
  config.position = {20.0, 0.0};
  config.battery = {1.0, 1.0};  // 1 mWh: dies after 36 s at 100 mW
  core::ThinClient thin(network_, network_.add_node("palm"), session_,
                        wireless::make_station(1), 101, config);
  ASSERT_TRUE(thin.attach(bs).ok());
  ASSERT_EQ(bs.grade(wireless::make_station(1)).value(),
            wireless::ModalityGrade::full_image);
  bs.radio().advance_time(60.0);
  EXPECT_EQ(bs.grade(wireless::make_station(1)).value(),
            wireless::ModalityGrade::none);

  // Media stops flowing to the dead client.
  core::ClientConfig wired_config;
  wired_config.name = "wired";
  core::InferenceEngine engine(core::QoSContract{},
                               core::PolicyDatabase::with_defaults());
  core::CollaborationClient wired(network_, network_.add_node("wired"),
                                  session_, 1, nullptr, std::move(engine),
                                  wired_config);
  app::ImageViewer viewer(wired);
  ASSERT_TRUE(viewer
                  .share(render_scene(media::make_crisis_scene(64, 64, 1)),
                         "x", "desc")
                  .ok());
  run_for(2.0);
  EXPECT_TRUE(thin.received_by_modality().empty());
  EXPECT_GE(bs.stats().suppressed_by_grade, 1u);
}

TEST_F(FailureTest, LossStormDropsMediaButClientRecovers) {
  core::ClientConfig config;
  config.name = "c";
  auto make = [&](const char* name, std::uint64_t id) {
    core::ClientConfig c = config;
    c.name = name;
    core::InferenceEngine engine(core::QoSContract{},
                                 core::PolicyDatabase::with_defaults());
    return std::make_unique<core::CollaborationClient>(
        network_, network_.add_node(name), session_, id, nullptr,
        std::move(engine), c);
  };
  auto sender = make("sender", 1);
  auto receiver = make("receiver", 2);
  app::ImageViewer viewer(*receiver);
  app::ImageViewer sender_viewer(*sender);
  const media::Image image =
      render_scene(media::make_crisis_scene(64, 64, 1));

  // Harsh but not total: enough fragments leak through that reassembly
  // holds partial objects, which the flush timer then drops incomplete.
  net::LinkParams storm;
  storm.loss_probability = 0.9;
  ASSERT_TRUE(network_.set_link_params(receiver->address().node, storm).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sender_viewer.share(image, "during", "d").ok());
    run_for(1.0);
  }
  const std::size_t during_storm = viewer.displays().size();

  ASSERT_TRUE(
      network_.set_link_params(receiver->address().node, net::LinkParams{})
          .ok());
  run_for(5.0);  // drain reassembly flush
  ASSERT_TRUE(sender_viewer.share(image, "after", "a").ok());
  run_for(2.0);
  EXPECT_GT(viewer.displays().size(), during_storm);
  EXPECT_EQ(viewer.displays().back().object_id, "after");
  EXPECT_GT(receiver->peer_stats().incomplete_dropped, 0u);
}

TEST_F(FailureTest, SessionAtCapacityRejectsJoin) {
  auto tiny = directory_.create("tiny", {}, {}, 1).take();
  ASSERT_TRUE(directory_.join("tiny").ok());
  EXPECT_EQ(directory_.join("tiny").code(), Errc::resource_limit);
}

TEST_F(FailureTest, UnsatisfiableContractIsSurfacedNotHidden) {
  core::QoSContract contract;
  contract.min_packets = 12;
  contract.max_packets = 4;
  core::InferenceEngine engine(contract,
                               core::PolicyDatabase::with_defaults());
  const auto decision = engine.decide({});
  EXPECT_FALSE(decision.contract_satisfiable);
}

}  // namespace
}  // namespace collabqos
