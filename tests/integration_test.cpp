// End-to-end scenarios across the whole framework: wired clients adapting
// to SNMP-observed load, the base station gateway, thin clients, and the
// interplay the paper's Section 6 experiments exercise.
#include <gtest/gtest.h>

#include <memory>

#include "collabqos/app/image_viewer.hpp"
#include "collabqos/core/archive.hpp"
#include "collabqos/core/basestation_peer.hpp"
#include "collabqos/core/client.hpp"
#include "collabqos/core/thin_client.hpp"
#include "collabqos/core/workstation.hpp"

namespace collabqos {
namespace {

using core::AttachRequest;
using core::BaseStationPeer;
using core::SessionInfo;
using core::ThinClient;
using core::Workstation;

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() {
    pubsub::AttributeSet objective;
    objective.set("domain", "crisis");
    session_ = directory_.create("incident", objective, {}).take();
  }

  void run_for(double seconds) {
    sim_.run_until(sim_.now() + sim::Duration::seconds(seconds));
  }

  media::Image crisis_image(int size = 128) {
    return render_scene(media::make_crisis_scene(size, size, 1));
  }

  sim::Simulator sim_;
  net::Network network_{sim_, 2026};
  core::SessionDirectory directory_;
  SessionInfo session_;
};

// The workstation's agent serves every object the client polls, so the
// poll set stays whole and all five inputs reach the inference engine.
TEST_F(IntegrationTest, WorkstationAgentServesEveryPolledInput) {
  Workstation station(network_, session_, "station", 1);
  run_for(1.0);
  const core::SystemStateInterface* state = station.client().system_state();
  ASSERT_NE(state, nullptr);
  ASSERT_TRUE(state->fresh());
  for (const char* key : {"cpu.load", "page.faults", "memory.free",
                          "if.utilization", "bandwidth.kbps"}) {
    EXPECT_TRUE(state->state().contains(std::string_view(key))) << key;
  }
  EXPECT_EQ(state->failures(), 0u);
}

TEST_F(IntegrationTest, IdleClientReceivesFullImage) {
  Workstation sender(network_, session_, "sender", 1);
  Workstation receiver(network_, session_, "receiver", 2);
  app::ImageViewer sender_viewer(sender.client());
  app::ImageViewer receiver_viewer(receiver.client());

  run_for(1.0);  // let SNMP polling seed the state
  ASSERT_TRUE(
      sender_viewer.share(crisis_image(), "img-1", "the incident area").ok());
  run_for(2.0);

  ASSERT_EQ(receiver_viewer.displays().size(), 1u);
  const app::Display& display = receiver_viewer.displays()[0];
  EXPECT_EQ(display.modality, media::Modality::image);
  EXPECT_EQ(display.report.packets_used, 16);
  ASSERT_TRUE(display.image.has_value());
  EXPECT_EQ(display.image->width(), 128);
  // Idle system: lossless delivery.
  EXPECT_EQ(display.image->pixels(), crisis_image().pixels());
}

TEST_F(IntegrationTest, PageFaultPressureCutsPacketsPerLadder) {
  Workstation sender(network_, session_, "sender", 1);
  Workstation receiver(network_, session_, "receiver", 2);
  app::ImageViewer viewer(receiver.client());

  receiver.host().set_page_fault_process(
      std::make_unique<sim::ConstantProcess>(75.0));  // ladder: 2 packets
  run_for(2.0);

  app::ImageViewer sender_viewer(sender.client());
  ASSERT_TRUE(sender_viewer.share(crisis_image(), "img", "area").ok());
  run_for(2.0);

  ASSERT_EQ(receiver.client().receptions().size(), 1u);
  EXPECT_EQ(receiver.client().receptions()[0].packets_used, 2);
  // The sender still shipped everything; adaptation is local.
  EXPECT_EQ(receiver.client().receptions()[0].packets_available, 16);
}

TEST_F(IntegrationTest, CpuSaturationDropsToTextDescription) {
  Workstation sender(network_, session_, "sender", 1);
  Workstation receiver(network_, session_, "receiver", 2);
  app::ImageViewer viewer(receiver.client());
  receiver.host().set_cpu_process(
      std::make_unique<sim::ConstantProcess>(100.0));
  run_for(2.0);

  app::ImageViewer sender_viewer(sender.client());
  ASSERT_TRUE(
      sender_viewer.share(crisis_image(), "img", "two buildings").ok());
  run_for(2.0);

  ASSERT_EQ(viewer.displays().size(), 1u);
  EXPECT_EQ(viewer.displays()[0].modality, media::Modality::text);
  EXPECT_NE(viewer.displays()[0].text.find("two buildings"),
            std::string::npos);
}

TEST_F(IntegrationTest, AdaptationTracksLoadRamp) {
  Workstation sender(network_, session_, "sender", 1);
  Workstation receiver(network_, session_, "receiver", 2);
  receiver.host().set_page_fault_process(std::make_unique<sim::RampProcess>(
      30.0, 100.0, sim_.now(), sim::Duration::seconds(60.0)));

  app::ImageViewer sender_viewer(sender.client());
  std::vector<int> packets_over_time;
  for (int step = 0; step < 6; ++step) {
    run_for(10.0);
    ASSERT_TRUE(sender_viewer
                    .share(crisis_image(64), "img" + std::to_string(step),
                           "ramp test")
                    .ok());
  }
  run_for(3.0);
  for (const auto& report : receiver.client().receptions()) {
    packets_over_time.push_back(report.packets_used);
  }
  ASSERT_EQ(packets_over_time.size(), 6u);
  // Non-increasing as the page-fault pressure ramps up, 16 -> 1.
  for (std::size_t i = 1; i < packets_over_time.size(); ++i) {
    EXPECT_LE(packets_over_time[i], packets_over_time[i - 1]);
  }
  EXPECT_EQ(packets_over_time.front(), 16);
  EXPECT_EQ(packets_over_time.back(), 1);
}

TEST_F(IntegrationTest, InterestProfileSuppressesUnwantedMedia) {
  Workstation sender(network_, session_, "sender", 1);
  Workstation receiver(network_, session_, "receiver", 2);
  receiver.client().profile().set_interest(
      pubsub::Selector::parse("media.type == 'telemetry'").take());
  app::ImageViewer sender_viewer(sender.client());
  run_for(1.0);
  ASSERT_TRUE(sender_viewer.share(crisis_image(64), "img", "x").ok());
  run_for(2.0);
  EXPECT_TRUE(receiver.client().receptions().empty());
  EXPECT_GE(receiver.client().peer_stats().rejected, 1u);
}

// ------------------------------------------------------------- wireless

class WirelessIntegration : public IntegrationTest {
 protected:
  WirelessIntegration() {
    core::BaseStationOptions options;
    options.channel.noise_kappa_db = 70.0;
    options.radio.power_control_enabled = false;
    bs_node_ = network_.add_node("base-station");
    bs_ = std::make_unique<BaseStationPeer>(network_, bs_node_, session_,
                                            900, options);
  }

  /// Walk a client outward until the BS grades it `target`; false if the
  /// sweep never hits that grade.
  bool move_until_grade(ThinClient& thin, wireless::ModalityGrade target) {
    for (double d = 30.0; d < 3000.0; d *= 1.04) {
      if (!thin.move({d, 0.0}).ok()) return false;
      const auto grade = bs_->grade(thin.station());
      if (grade && grade.value() == target) return true;
    }
    return false;
  }

  std::unique_ptr<ThinClient> make_thin(const std::string& name,
                                        std::uint32_t station,
                                        std::uint64_t peer,
                                        wireless::Position position,
                                        double power_mw = 100.0) {
    core::ThinClientConfig config;
    config.name = name;
    config.position = position;
    config.tx_power_mw = power_mw;
    auto client = std::make_unique<ThinClient>(
        network_, network_.add_node(name), session_,
        wireless::make_station(station), peer, config);
    return client;
  }

  net::NodeId bs_node_{};
  std::unique_ptr<BaseStationPeer> bs_;
};

TEST(BaseStationDecision, GradeSetsModalityAndPacketBudget) {
  using wireless::ModalityGrade;
  const auto expect = [](ModalityGrade grade, media::Modality ceiling,
                         media::Modality modality, int packets) {
    const core::AdaptationDecision decision =
        core::decision_for_grade(grade, ceiling);
    EXPECT_EQ(decision.modality, modality) << to_string(grade);
    EXPECT_EQ(decision.packets, packets) << to_string(grade);
  };
  constexpr media::Modality kImage = media::Modality::image;
  expect(ModalityGrade::full_image, kImage, kImage, 16);
  expect(ModalityGrade::text_sketch, kImage, media::Modality::sketch, 0);
  expect(ModalityGrade::text_only, kImage, media::Modality::text, 0);
  // A preference weaker than the grade caps the modality.
  expect(ModalityGrade::full_image, media::Modality::speech,
         media::Modality::speech, 0);
  expect(ModalityGrade::text_only, media::Modality::sketch,
         media::Modality::text, 0);
}

TEST_F(WirelessIntegration, AttachReturnsServiceAssessment) {
  auto thin = make_thin("palm-1", 1, 101, {30.0, 0.0});
  auto assessment = thin->attach(*bs_);
  ASSERT_TRUE(assessment.ok());
  EXPECT_NEAR(assessment.value().distance_m, 30.0, 1e-9);
  EXPECT_EQ(assessment.value().grade, wireless::ModalityGrade::full_image);
  EXPECT_EQ(bs_->client_count(), 1u);
  EXPECT_TRUE(thin->detach().ok());
  EXPECT_EQ(bs_->client_count(), 0u);
}

TEST_F(WirelessIntegration, NearClientGetsFullImageFarClientGetsText) {
  auto near = make_thin("near", 1, 101, {20.0, 0.0});
  auto far = make_thin("far", 2, 102, {20.0, 0.0});
  ASSERT_TRUE(near->attach(*bs_).ok());
  ASSERT_TRUE(far->attach(*bs_).ok());
  // Stretch the far client until its grade collapses to text-only.
  ASSERT_TRUE(move_until_grade(*far, wireless::ModalityGrade::text_only));
  ASSERT_EQ(bs_->grade(wireless::make_station(1)).value(),
            wireless::ModalityGrade::full_image);
  ASSERT_EQ(bs_->grade(wireless::make_station(2)).value(),
            wireless::ModalityGrade::text_only);

  Workstation wired(network_, session_, "wired", 1);
  app::ImageViewer viewer(wired.client());
  run_for(1.0);
  ASSERT_TRUE(
      viewer.share(crisis_image(), "img", "overview of the area").ok());
  run_for(3.0);

  ASSERT_EQ(near->received_by_modality().count(media::Modality::image), 1u);
  ASSERT_EQ(far->received_by_modality().count(media::Modality::text), 1u);
  EXPECT_EQ(far->received_by_modality().count(media::Modality::image), 0u);
  EXPECT_GE(bs_->stats().downlink_unicasts, 2u);
}

TEST_F(WirelessIntegration, MidSirClientGetsSketch) {
  auto mid = make_thin("mid", 1, 101, {20.0, 0.0});
  ASSERT_TRUE(mid->attach(*bs_).ok());
  // Find a distance whose SIR lands in [0, 4) dB -> text+sketch.
  ASSERT_TRUE(move_until_grade(*mid, wireless::ModalityGrade::text_sketch));
  Workstation wired(network_, session_, "wired", 1);
  app::ImageViewer viewer(wired.client());
  run_for(1.0);
  ASSERT_TRUE(viewer.share(crisis_image(), "img", "sector map").ok());
  run_for(3.0);
  EXPECT_EQ(mid->received_by_modality().count(media::Modality::sketch), 1u);
}

TEST_F(WirelessIntegration, UplinkImageIsRelayedToSessionAndOtherClients) {
  auto sender = make_thin("w-sender", 1, 101, {15.0, 0.0});
  auto other = make_thin("w-other", 2, 102, {18.0, 0.0});
  ASSERT_TRUE(sender->attach(*bs_).ok());
  ASSERT_TRUE(other->attach(*bs_).ok());
  Workstation wired(network_, session_, "wired", 1);
  app::ImageViewer wired_viewer(wired.client());

  media::ImageMedia m;
  const media::Image image = crisis_image(64);
  m.width = m.height = 64;
  m.channels = 1;
  m.description = "from the field";
  m.encoded = media::encode_progressive(image);
  pubsub::AttributeSet content;
  content.set("media.type", "image");
  ASSERT_TRUE(sender
                  ->share_media(media::MediaObject(std::move(m)),
                                pubsub::Selector::always(), content)
                  .ok());
  run_for(3.0);

  // The wired peer got it through the BS multicast relay...
  ASSERT_EQ(wired_viewer.displays().size(), 1u);
  EXPECT_EQ(wired_viewer.displays()[0].modality, media::Modality::image);
  // ...and the other wireless client by unicast.
  EXPECT_EQ(other->received_by_modality().count(media::Modality::image), 1u);
  // The sender itself does not echo.
  EXPECT_TRUE(sender->received_by_modality().empty());
  EXPECT_GE(bs_->stats().uplink_events, 1u);
}

TEST_F(WirelessIntegration, WeakUplinkIsAbstractedBeforeRelay) {
  auto sender = make_thin("weak", 1, 101, {20.0, 0.0});
  ASSERT_TRUE(sender->attach(*bs_).ok());
  // Walk out until text-only.
  ASSERT_TRUE(move_until_grade(*sender, wireless::ModalityGrade::text_only));
  ASSERT_EQ(bs_->grade(wireless::make_station(1)).value(),
            wireless::ModalityGrade::text_only);

  Workstation wired(network_, session_, "wired", 1);
  app::ImageViewer viewer(wired.client());

  media::ImageMedia m;
  const media::Image image = crisis_image(64);
  m.width = m.height = 64;
  m.channels = 1;
  m.description = "casualty report";
  m.encoded = media::encode_progressive(image);
  ASSERT_TRUE(sender
                  ->share_media(media::MediaObject(std::move(m)),
                                pubsub::Selector::always(), {})
                  .ok());
  run_for(3.0);

  ASSERT_EQ(viewer.displays().size(), 1u);
  EXPECT_EQ(viewer.displays()[0].modality, media::Modality::text);
  EXPECT_NE(viewer.displays()[0].text.find("casualty report"),
            std::string::npos);
}

TEST_F(WirelessIntegration, PreferTextProfileIsHonoredOnGoodChannel) {
  auto thin = make_thin("saver", 1, 101, {15.0, 0.0});
  ASSERT_TRUE(thin->attach(*bs_).ok());
  // "User B is running low on power and decides to go into text-mode."
  thin->profile().set("prefer.modality", "text");
  ASSERT_TRUE(thin->push_profile().ok());

  Workstation wired(network_, session_, "wired", 1);
  app::ImageViewer viewer(wired.client());
  run_for(1.0);
  ASSERT_TRUE(viewer.share(crisis_image(64), "img", "area").ok());
  run_for(3.0);
  EXPECT_EQ(thin->received_by_modality().count(media::Modality::text), 1u);
  EXPECT_EQ(thin->received_by_modality().count(media::Modality::image), 0u);
}

TEST_F(WirelessIntegration, PreferSpeechProfileDeliversAudio) {
  auto thin = make_thin("audio-first", 1, 101, {15.0, 0.0});
  ASSERT_TRUE(thin->attach(*bs_).ok());
  thin->profile().set("prefer.modality", "speech");
  ASSERT_TRUE(thin->push_profile().ok());

  Workstation wired(network_, session_, "wired", 1);
  app::ImageViewer viewer(wired.client());
  run_for(1.0);
  ASSERT_TRUE(viewer.share(crisis_image(64), "img", "spoken summary").ok());
  run_for(3.0);
  EXPECT_EQ(thin->received_by_modality().count(media::Modality::speech), 1u);
}

TEST_F(WirelessIntegration, PowerControlKeepsBothClientsServed) {
  // With target-SIR power control on, two clients at very different
  // ranges both converge to a usable grade, where open loop would starve
  // the far one.
  core::BaseStationOptions options;
  options.channel.noise_kappa_db = 70.0;
  options.radio.power_control_enabled = true;
  options.radio.power_control.target_sir_db = 5.0;
  options.radio.power_control.min_power_mw = 0.01;
  BaseStationPeer controlled(network_, network_.add_node("bs-pc"), session_,
                             902, options);
  auto near = make_thin("near-pc", 21, 121, {15.0, 0.0});
  auto far = make_thin("far-pc", 22, 122, {120.0, 0.0});
  ASSERT_TRUE(near->attach(controlled).ok());
  ASSERT_TRUE(far->attach(controlled).ok());
  const double near_sir =
      controlled.radio().sir_db(wireless::make_station(21)).value();
  const double far_sir =
      controlled.radio().sir_db(wireless::make_station(22)).value();
  EXPECT_NEAR(near_sir, 5.0, 1.0);
  EXPECT_NEAR(far_sir, 5.0, 1.0);
  // The near client spends far less power for the same service.
  EXPECT_LT(controlled.radio().state(wireless::make_station(21))
                .value().tx_power_mw * 10,
            controlled.radio().state(wireless::make_station(22))
                .value().tx_power_mw);
}

TEST_F(WirelessIntegration, ClientLimitRejectsExtraAttach) {
  core::BaseStationOptions options;
  options.client_limit = 1;
  BaseStationPeer limited(network_, network_.add_node("bs2"), session_, 901,
                          options);
  auto first = make_thin("one", 11, 111, {10.0, 0.0});
  auto second = make_thin("two", 12, 112, {10.0, 0.0});
  EXPECT_TRUE(first->attach(limited).ok());
  auto denied = second->attach(limited);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.code(), Errc::resource_limit);
}

TEST_F(WirelessIntegration, ArchiveReplayReachesLateThinClient) {
  // A wireless client that attaches after the action can still catch up:
  // the archive replays by unicast straight to the thin client's
  // endpoint (which accepts unicast despite not being in the group).
  core::SessionArchiver archive(network_, network_.add_node("vault"),
                                session_, 500);
  Workstation wired(network_, session_, "wired", 1);
  app::ImageViewer viewer(wired.client());
  run_for(1.0);
  ASSERT_TRUE(viewer.share(crisis_image(64), "early", "before join").ok());
  run_for(2.0);
  ASSERT_EQ(archive.recorded(), 1u);

  auto late = make_thin("latecomer", 5, 105, {20.0, 0.0});
  ASSERT_TRUE(late->attach(*bs_).ok());
  EXPECT_TRUE(late->received_by_modality().empty());
  ASSERT_TRUE(archive.replay_to(late->address()).ok());
  run_for(2.0);
  EXPECT_EQ(late->received_by_modality().count(media::Modality::image), 1u);
}

TEST_F(WirelessIntegration, ArchiveCapturesUplinkRelays) {
  core::SessionArchiver archive(network_, network_.add_node("vault"),
                                session_, 500);
  auto sender = make_thin("field", 1, 101, {15.0, 0.0});
  ASSERT_TRUE(sender->attach(*bs_).ok());
  ASSERT_TRUE(sender
                  ->share_media(media::MediaObject(
                                    media::TextMedia{"from the field"}),
                                pubsub::Selector::always(), {})
                  .ok());
  run_for(2.0);
  // The BS's multicast relay is what the archive hears.
  EXPECT_EQ(archive.recorded(), 1u);
}

TEST_F(WirelessIntegration, ProfileInterestFiltersAtBaseStation) {
  auto thin = make_thin("choosy", 1, 101, {15.0, 0.0});
  ASSERT_TRUE(thin->attach(*bs_).ok());
  thin->profile().set_interest(
      pubsub::Selector::parse("media.type == 'telemetry'").take());
  ASSERT_TRUE(thin->push_profile().ok());

  Workstation wired(network_, session_, "wired", 1);
  app::ImageViewer viewer(wired.client());
  run_for(1.0);
  ASSERT_TRUE(viewer.share(crisis_image(64), "img", "x").ok());
  run_for(3.0);
  EXPECT_TRUE(thin->received_by_modality().empty());
  EXPECT_GE(bs_->stats().suppressed_by_profile, 1u);
}

}  // namespace
}  // namespace collabqos
