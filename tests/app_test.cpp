// Application entities over the full substrate: chat transcripts,
// whiteboard convergence, image-viewer quality records.
#include <gtest/gtest.h>

#include <memory>

#include "collabqos/app/chat.hpp"
#include "collabqos/app/image_viewer.hpp"
#include "collabqos/app/whiteboard.hpp"
#include "collabqos/core/client.hpp"

namespace collabqos::app {
namespace {

class AppTest : public ::testing::Test {
 protected:
  AppTest() {
    session_ = directory_.create("room", {}, {}).take();
  }

  std::unique_ptr<core::CollaborationClient> make_client(
      const std::string& name, std::uint64_t id) {
    core::ClientConfig config;
    config.name = name;
    config.monitor_system_state = false;  // open-loop: app tests only
    core::InferenceEngine engine(core::QoSContract{},
                                 core::PolicyDatabase::with_defaults());
    return std::make_unique<core::CollaborationClient>(
        network_, network_.add_node(name), session_, id, nullptr,
        std::move(engine), config);
  }

  void settle() { sim_.run_until(sim_.now() + sim::Duration::seconds(2.0)); }

  sim::Simulator sim_;
  net::Network network_{sim_, 7};
  core::SessionDirectory directory_;
  core::SessionInfo session_;
};

TEST_F(AppTest, ChatTranscriptConvergesAcrossClients) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  ChatArea alice_chat(*alice);
  ChatArea bob_chat(*bob);

  ASSERT_TRUE(alice_chat.post("anyone on site?").ok());
  settle();
  ASSERT_TRUE(bob_chat.post("two minutes out").ok());
  settle();
  ASSERT_TRUE(alice_chat.post("copy").ok());
  settle();

  const auto at_alice = alice_chat.transcript();
  const auto at_bob = bob_chat.transcript();
  ASSERT_EQ(at_alice.size(), 3u);
  ASSERT_EQ(at_bob.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(at_alice[i].text, at_bob[i].text);
    EXPECT_EQ(at_alice[i].author, at_bob[i].author);
  }
  EXPECT_EQ(at_alice[0].text, "anyone on site?");
  EXPECT_EQ(at_alice[1].text, "two minutes out");
  EXPECT_EQ(at_alice[2].text, "copy");
}

TEST_F(AppTest, SimultaneousChatPostsBothSurvive) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  ChatArea alice_chat(*alice);
  ChatArea bob_chat(*bob);
  // Both post before either delivery settles: a true concurrent pair.
  ASSERT_TRUE(alice_chat.post("I'll take north").ok());
  ASSERT_TRUE(bob_chat.post("I'll take north").ok());
  settle();
  const auto at_alice = alice_chat.transcript();
  const auto at_bob = bob_chat.transcript();
  ASSERT_EQ(at_alice.size(), 2u);  // no information lost
  ASSERT_EQ(at_bob.size(), 2u);
  EXPECT_EQ(at_alice[0].author, at_bob[0].author);
  EXPECT_EQ(at_alice[1].author, at_bob[1].author);
}

TEST_F(AppTest, WhiteboardStrokesReplicate) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  Whiteboard alice_board(*alice);
  Whiteboard bob_board(*bob);

  ASSERT_TRUE(alice_board.draw({0, 0, 10, 10, 0xFF0000FF, 2.0, 0}).ok());
  ASSERT_TRUE(bob_board.draw({5, 5, 20, 20, 0xFF00FF00, 1.0, 0}).ok());
  settle();

  const auto at_alice = alice_board.strokes();
  const auto at_bob = bob_board.strokes();
  ASSERT_EQ(at_alice.size(), 2u);
  ASSERT_EQ(at_bob.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(at_alice[i].x1, at_bob[i].x1);
    EXPECT_EQ(at_alice[i].color, at_bob[i].color);
    EXPECT_EQ(at_alice[i].author, at_bob[i].author);
  }
}

TEST_F(AppTest, WhiteboardClearDropsEarlierStrokesEverywhere) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  Whiteboard alice_board(*alice);
  Whiteboard bob_board(*bob);

  ASSERT_TRUE(alice_board.draw({0, 0, 1, 1, 0xFF000000, 1.0, 0}).ok());
  settle();
  ASSERT_TRUE(bob_board.clear().ok());
  settle();
  ASSERT_TRUE(alice_board.draw({2, 2, 3, 3, 0xFF000000, 1.0, 0}).ok());
  settle();

  ASSERT_EQ(alice_board.strokes().size(), 1u);
  ASSERT_EQ(bob_board.strokes().size(), 1u);
  EXPECT_DOUBLE_EQ(alice_board.strokes()[0].x0, 2.0);
  EXPECT_DOUBLE_EQ(bob_board.strokes()[0].x0, 2.0);
}

TEST_F(AppTest, StrokeCodecRoundTrip) {
  const Stroke stroke{1.5, -2.5, 100.25, 42.0, 0xAABBCCDD, 3.5, 0};
  auto decoded = Stroke::decode(stroke.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded.value().x0, 1.5);
  EXPECT_DOUBLE_EQ(decoded.value().y0, -2.5);
  EXPECT_DOUBLE_EQ(decoded.value().x1, 100.25);
  EXPECT_DOUBLE_EQ(decoded.value().y1, 42.0);
  EXPECT_EQ(decoded.value().color, 0xAABBCCDDu);
  EXPECT_DOUBLE_EQ(decoded.value().width, 3.5);
}

TEST_F(AppTest, SeparateBoardsDoNotInterfere) {
  auto alice = make_client("alice", 1);
  Whiteboard map_board(*alice, "board.map");
  Whiteboard notes_board(*alice, "board.notes");
  ASSERT_TRUE(map_board.draw({0, 0, 1, 1, 0, 1.0, 0}).ok());
  settle();
  EXPECT_EQ(map_board.strokes().size(), 1u);
  EXPECT_TRUE(notes_board.strokes().empty());
}

TEST_F(AppTest, ImageViewerRecordsQualityOfDisplays) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  ImageViewer alice_viewer(*alice);
  ImageViewer bob_viewer(*bob);

  const media::Image image =
      render_scene(media::make_medical_scene(96, 96));
  ASSERT_TRUE(alice_viewer.share(image, "scan-1", "axial slice").ok());
  settle();

  ASSERT_EQ(bob_viewer.displays().size(), 1u);
  const Display* display = &bob_viewer.displays().front();
  EXPECT_EQ(display->object_id, "scan-1");
  EXPECT_EQ(display->modality, media::Modality::image);
  EXPECT_GT(display->report.bits_per_pixel, 0.0);
  EXPECT_GT(display->report.compression_ratio, 1.0);
  ASSERT_TRUE(display->image.has_value());
  EXPECT_EQ(display->image->pixels(), image.pixels());
}

TEST_F(AppTest, ChatAndBoardCoexistOnOneClient) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  ChatArea alice_chat(*alice);
  Whiteboard alice_board(*alice);
  ChatArea bob_chat(*bob);
  Whiteboard bob_board(*bob);

  ASSERT_TRUE(alice_chat.post("drawing the perimeter now").ok());
  ASSERT_TRUE(alice_board.draw({0, 0, 9, 9, 1, 1.0, 0}).ok());
  settle();
  EXPECT_EQ(bob_chat.transcript().size(), 1u);
  EXPECT_EQ(bob_board.strokes().size(), 1u);
}

}  // namespace
}  // namespace collabqos::app
