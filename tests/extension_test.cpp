// Extension features beyond the paper's core loop: session archiving
// for late joiners (§3), SNMP traps, RTCP-driven network-quality
// adaptation, and promiscuous gateway delivery.
#include <gtest/gtest.h>

#include <memory>

#include "collabqos/app/chat.hpp"
#include "collabqos/app/floor_control.hpp"
#include "collabqos/app/image_viewer.hpp"
#include "collabqos/core/archive.hpp"
#include "collabqos/core/client.hpp"
#include "collabqos/snmp/host_mib.hpp"

namespace collabqos {
namespace {

class ExtensionTest : public ::testing::Test {
 protected:
  ExtensionTest() { session_ = directory_.create("room", {}, {}).take(); }

  std::unique_ptr<core::CollaborationClient> make_client(
      const std::string& name, std::uint64_t id) {
    core::ClientConfig config;
    config.name = name;
    core::InferenceEngine engine(core::QoSContract{},
                                 core::PolicyDatabase::with_defaults());
    return std::make_unique<core::CollaborationClient>(
        network_, network_.add_node(name), session_, id, nullptr,
        std::move(engine), config);
  }

  void run_for(double seconds) {
    sim_.run_until(sim_.now() + sim::Duration::seconds(seconds));
  }

  sim::Simulator sim_;
  net::Network network_{sim_, 31};
  core::SessionDirectory directory_;
  core::SessionInfo session_;
};

// ---------------------------------------------------------------- archive

TEST_F(ExtensionTest, ArchiverRecordsSessionTraffic) {
  auto alice = make_client("alice", 1);
  core::SessionArchiver archive(network_, network_.add_node("vault"),
                                session_, 500);
  app::ChatArea chat(*alice);
  ASSERT_TRUE(chat.post("one").ok());
  ASSERT_TRUE(chat.post("two").ok());
  run_for(2.0);
  EXPECT_EQ(archive.recorded(), 2u);
  EXPECT_EQ(archive.evicted(), 0u);
}

TEST_F(ExtensionTest, LateJoinerCatchesUpFromArchive) {
  auto alice = make_client("alice", 1);
  core::SessionArchiver archive(network_, network_.add_node("vault"),
                                session_, 500);
  app::ChatArea alice_chat(*alice);
  ASSERT_TRUE(alice_chat.post("before you joined").ok());
  ASSERT_TRUE(alice_chat.post("still before").ok());
  run_for(2.0);

  // Bob joins late; his transcript starts empty, then the archive
  // replays the history to him by unicast.
  auto bob = make_client("bob", 2);
  app::ChatArea bob_chat(*bob);
  EXPECT_TRUE(bob_chat.transcript().empty());
  auto replayed = archive.replay_to(bob->address());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value(), 2u);
  run_for(2.0);

  const auto transcript = bob_chat.transcript();
  ASSERT_EQ(transcript.size(), 2u);
  EXPECT_EQ(transcript[0].text, "before you joined");
  EXPECT_EQ(transcript[1].text, "still before");
  // Original authorship survives the replay.
  EXPECT_EQ(transcript[0].author, 1u);
}

TEST_F(ExtensionTest, ReplayDeduplicatesAgainstLiveDelivery) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  core::SessionArchiver archive(network_, network_.add_node("vault"),
                                session_, 500);
  app::ChatArea alice_chat(*alice);
  app::ChatArea bob_chat(*bob);
  ASSERT_TRUE(alice_chat.post("seen live").ok());
  run_for(2.0);
  ASSERT_EQ(bob_chat.transcript().size(), 1u);
  // Replaying history Bob already has must not duplicate entries.
  ASSERT_TRUE(archive.replay_to(bob->address()).ok());
  run_for(2.0);
  EXPECT_EQ(bob_chat.transcript().size(), 1u);
}

TEST_F(ExtensionTest, ArchiveCapacityEvictsOldest) {
  auto alice = make_client("alice", 1);
  core::ArchiverOptions options;
  options.capacity = 3;
  core::SessionArchiver archive(network_, network_.add_node("vault"),
                                session_, 500, options);
  app::ChatArea chat(*alice);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(chat.post("msg " + std::to_string(i)).ok());
    run_for(1.0);
  }
  EXPECT_EQ(archive.recorded(), 3u);
  EXPECT_EQ(archive.evicted(), 2u);

  auto bob = make_client("bob", 2);
  app::ChatArea bob_chat(*bob);
  ASSERT_TRUE(archive.replay_to(bob->address()).ok());
  run_for(2.0);
  const auto transcript = bob_chat.transcript();
  ASSERT_EQ(transcript.size(), 3u);
  EXPECT_EQ(transcript[0].text, "msg 2");  // oldest two evicted
}

TEST_F(ExtensionTest, ArchiverIsPromiscuous) {
  auto alice = make_client("alice", 1);
  core::SessionArchiver archive(network_, network_.add_node("vault"),
                                session_, 500);
  // A message addressed to a profile the archiver does not have: it must
  // be recorded anyway (promiscuous gateway semantics).
  ASSERT_TRUE(alice
                  ->share_media(media::MediaObject(media::TextMedia{"t"}),
                                pubsub::Selector::parse("team == 'rescue'")
                                    .take(),
                                {})
                  .ok());
  run_for(2.0);
  EXPECT_EQ(archive.recorded(), 1u);
}

// ------------------------------------------------------------------ traps

class TrapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    host_node_ = network_.add_node("host");
    mgmt_node_ = network_.add_node("mgmt");
    agent_ = std::make_unique<snmp::Agent>(network_, host_node_, "public",
                                           "rw");
    host_ = std::make_unique<sim::Host>(sim_, "host");
    snmp::install_host_instrumentation(*agent_, *host_, sim_);
    manager_ = std::make_unique<snmp::Manager>(network_, mgmt_node_);
  }

  sim::Simulator sim_;
  net::Network network_{sim_, 8};
  net::NodeId host_node_{};
  net::NodeId mgmt_node_{};
  std::unique_ptr<snmp::Agent> agent_;
  std::unique_ptr<snmp::Manager> manager_;
  std::unique_ptr<sim::Host> host_;
};

TEST_F(TrapTest, ExplicitTrapReachesListener) {
  std::vector<snmp::Pdu> received;
  ASSERT_TRUE(manager_
                  ->listen_for_traps([&](net::NodeId, const snmp::Pdu& pdu) {
                    received.push_back(pdu);
                  })
                  .ok());
  ASSERT_TRUE(agent_
                  ->send_trap(mgmt_node_, {{snmp::oids::tassl_cpu_load(),
                                            snmp::Value::gauge(99)}})
                  .ok());
  sim_.run_all();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].type, snmp::PduType::trap);
  ASSERT_EQ(received[0].bindings.size(), 1u);
  EXPECT_EQ(received[0].bindings[0].value.as_number().value(), 99.0);
  EXPECT_EQ(manager_->stats().traps_received, 1u);
}

TEST_F(TrapTest, ThresholdRuleFiresOnceUntilRearmed) {
  int traps = 0;
  ASSERT_TRUE(manager_
                  ->listen_for_traps(
                      [&](net::NodeId, const snmp::Pdu&) { ++traps; })
                  .ok());
  agent_->add_trap_rule({snmp::oids::tassl_cpu_load(), 80.0, true});
  agent_->start_trap_monitor(mgmt_node_, sim::Duration::millis(100));

  host_->set_cpu_process(std::make_unique<sim::ConstantProcess>(50.0));
  sim_.run_until(sim_.now() + sim::Duration::seconds(1.0));
  EXPECT_EQ(traps, 0);

  host_->set_cpu_process(std::make_unique<sim::ConstantProcess>(95.0));
  sim_.run_until(sim_.now() + sim::Duration::seconds(1.0));
  EXPECT_EQ(traps, 1);  // edge-triggered: one trap while latched

  host_->set_cpu_process(std::make_unique<sim::ConstantProcess>(40.0));
  sim_.run_until(sim_.now() + sim::Duration::seconds(1.0));
  host_->set_cpu_process(std::make_unique<sim::ConstantProcess>(95.0));
  sim_.run_until(sim_.now() + sim::Duration::seconds(1.0));
  EXPECT_EQ(traps, 2);  // re-armed after receding

  agent_->stop_trap_monitor();
  host_->set_cpu_process(std::make_unique<sim::ConstantProcess>(10.0));
  host_->set_cpu_process(std::make_unique<sim::ConstantProcess>(99.0));
  sim_.run_until(sim_.now() + sim::Duration::seconds(1.0));
  EXPECT_EQ(traps, 2);  // monitor stopped
}

TEST_F(TrapTest, BelowThresholdDirection) {
  int traps = 0;
  ASSERT_TRUE(manager_
                  ->listen_for_traps(
                      [&](net::NodeId, const snmp::Pdu&) { ++traps; })
                  .ok());
  agent_->add_trap_rule(
      {snmp::oids::tassl_free_memory(), 1000.0, /*fire_above=*/false});
  agent_->start_trap_monitor(mgmt_node_, sim::Duration::millis(100));
  host_->set_memory_process(std::make_unique<sim::ConstantProcess>(500.0));
  sim_.run_until(sim_.now() + sim::Duration::seconds(1.0));
  EXPECT_EQ(traps, 1);
}

TEST_F(TrapTest, TrapFastPathBeatsThePollingClock) {
  // Slow poller + threshold trap: the state interface must refresh
  // within the trap monitor's cadence, far sooner than its own poll.
  core::SystemStateOptions options;
  options.poll_interval = sim::Duration::seconds(30.0);
  core::SystemStateInterface state(*manager_, host_node_, sim_, options);
  state.start();
  ASSERT_TRUE(state.enable_trap_fast_path().ok());
  agent_->add_trap_rule({snmp::oids::tassl_cpu_load(), 80.0, true});
  agent_->start_trap_monitor(mgmt_node_, sim::Duration::millis(100));

  sim_.run_until(sim_.now() + sim::Duration::seconds(1.0));
  const double before =
      state.state().contains("cpu.load")
          ? state.state().find("cpu.load")->as_number().value()
          : -1.0;
  host_->set_cpu_process(std::make_unique<sim::ConstantProcess>(95.0));
  // Two seconds is far below the 30 s poll period; only the trap path
  // can deliver the update this fast.
  sim_.run_until(sim_.now() + sim::Duration::seconds(2.0));
  ASSERT_TRUE(state.state().contains("cpu.load"));
  EXPECT_DOUBLE_EQ(state.state().find("cpu.load")->as_number().value(),
                   95.0);
  EXPECT_NE(before, 95.0);
}

// ------------------------------------------------------------ floor control

TEST_F(ExtensionTest, FloorIsGrantedInRequestOrderEverywhere) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  app::FloorControl alice_floor(*alice, "whiteboard.main");
  app::FloorControl bob_floor(*bob, "whiteboard.main");

  // Concurrent requests: both fire before any delivery settles.
  ASSERT_TRUE(alice_floor.request().ok());
  ASSERT_TRUE(bob_floor.request().ok());
  run_for(2.0);

  // Same lamport, ties broken by peer id: alice (1) holds, bob queues —
  // at BOTH replicas.
  EXPECT_EQ(alice_floor.holder().value(), 1u);
  EXPECT_EQ(bob_floor.holder().value(), 1u);
  EXPECT_TRUE(alice_floor.has_floor());
  EXPECT_FALSE(bob_floor.has_floor());
  ASSERT_EQ(bob_floor.queue().size(), 1u);
  EXPECT_EQ(bob_floor.queue()[0], 2u);
}

TEST_F(ExtensionTest, ReleasePassesFloorToNextInQueue) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  app::FloorControl alice_floor(*alice, "doc");
  app::FloorControl bob_floor(*bob, "doc");
  ASSERT_TRUE(alice_floor.request().ok());
  run_for(1.0);
  ASSERT_TRUE(bob_floor.request().ok());
  run_for(1.0);
  ASSERT_TRUE(alice_floor.has_floor());

  ASSERT_TRUE(alice_floor.release().ok());
  run_for(1.0);
  EXPECT_TRUE(bob_floor.has_floor());
  EXPECT_FALSE(alice_floor.has_floor());
  EXPECT_TRUE(bob_floor.queue().empty());
}

TEST_F(ExtensionTest, FloorRequestIsIdempotentAndReleaseGuarded) {
  auto alice = make_client("alice", 1);
  app::FloorControl floor(*alice, "doc");
  ASSERT_TRUE(floor.request().ok());
  run_for(1.0);
  ASSERT_TRUE(floor.request().ok());  // no double-queue
  run_for(1.0);
  EXPECT_TRUE(floor.queue().empty());
  ASSERT_TRUE(floor.release().ok());
  run_for(1.0);
  EXPECT_FALSE(floor.holder().has_value());
  EXPECT_EQ(floor.release().code(), Errc::no_such_object);
}

TEST_F(ExtensionTest, RevokeRecoversFromCrashedHolder) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  app::FloorControl alice_floor(*alice, "doc");
  app::FloorControl bob_floor(*bob, "doc");
  ASSERT_TRUE(alice_floor.request().ok());
  run_for(1.0);
  ASSERT_TRUE(bob_floor.request().ok());
  run_for(1.0);
  // Alice "crashes"; bob revokes her floor and takes over.
  ASSERT_TRUE(bob_floor.revoke(1).ok());
  run_for(1.0);
  EXPECT_TRUE(bob_floor.has_floor());
  EXPECT_FALSE(bob_floor.revoke(42).ok());  // unknown peer
}

TEST_F(ExtensionTest, ReRequestAfterReleaseJoinsBackOfQueue) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  app::FloorControl alice_floor(*alice, "doc");
  app::FloorControl bob_floor(*bob, "doc");
  ASSERT_TRUE(alice_floor.request().ok());
  run_for(1.0);
  ASSERT_TRUE(bob_floor.request().ok());
  run_for(1.0);
  ASSERT_TRUE(alice_floor.release().ok());
  run_for(1.0);
  ASSERT_TRUE(alice_floor.request().ok());  // rejoin
  run_for(1.0);
  EXPECT_TRUE(bob_floor.has_floor());
  ASSERT_EQ(bob_floor.queue().size(), 1u);
  EXPECT_EQ(bob_floor.queue()[0], 1u);
}

// --------------------------------------------------- RTCP network quality

TEST_F(ExtensionTest, LossyNetworkDegradesModalityViaRtcp) {
  auto sender = make_client("sender", 1);
  auto receiver = make_client("receiver", 2);
  app::ImageViewer viewer(*receiver);

  // Sustained heavy loss on the receiver's link: the NACK repair path
  // masks part of it, but the residual measured by RTCP receiver reports
  // must still clear the policy database's lossy-net-sketch threshold
  // (net.loss.fraction > 0.3) with margin.
  net::LinkParams lossy;
  lossy.loss_probability = 0.75;
  ASSERT_TRUE(
      network_.set_link_params(receiver->address().node, lossy).ok());

  // Large-enough objects that each report interval sees many fragments
  // (RTP loss accounting cannot see trailing losses of tiny bursts).
  const media::Image image =
      render_scene(media::make_crisis_scene(192, 192, 1));
  app::ImageViewer sender_viewer(*sender);
  // Pump enough traffic for reports to accumulate loss.
  for (int i = 0; i < 25; ++i) {
    (void)sender_viewer.share(image, "img" + std::to_string(i), "scene");
    run_for(1.0);
  }
  const auto& state = receiver->network_state();
  ASSERT_TRUE(state.contains("net.loss.fraction"));
  EXPECT_GT(state.find("net.loss.fraction")->as_number().value(), 0.1);
  EXPECT_LE(core::modality_rank(receiver->last_decision().modality),
            core::modality_rank(media::Modality::sketch));
}

TEST_F(ExtensionTest, CleanNetworkKeepsFullModality) {
  auto sender = make_client("sender", 1);
  auto receiver = make_client("receiver", 2);
  const media::Image image =
      render_scene(media::make_crisis_scene(64, 64, 1));
  app::ImageViewer sender_viewer(*sender);
  for (int i = 0; i < 5; ++i) {
    (void)sender_viewer.share(image, "img" + std::to_string(i), "scene");
    run_for(1.0);
  }
  EXPECT_EQ(receiver->last_decision().modality, media::Modality::image);
}

}  // namespace
}  // namespace collabqos
