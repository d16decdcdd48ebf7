// Application entities over the full substrate: chat transcripts,
// whiteboard convergence, image-viewer quality records.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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
  ASSERT_TRUE(bob_viewer.screen().image.has_value());
  EXPECT_EQ(bob_viewer.screen().image->pixels(), image.pixels());
  EXPECT_EQ(bob_viewer.screen().text, "axial slice");
}

/// A type that carries shown content: an image or a text.
template <class T>
concept CarriesContent = requires(const T& shown) { shown.image; } ||
                         requires(const T& shown) { shown.text; };

// The viewer's memory tracks the screen, not the session: a record per
// display, and the content of the latest one only.
static_assert(!CarriesContent<Display>);
static_assert(CarriesContent<Screen>);

TEST_F(AppTest, ViewerKeepsEveryRecordAndOneScreen) {
  auto alice = make_client("alice", 1);
  auto bob = make_client("bob", 2);
  ImageViewer alice_viewer(*alice);
  ImageViewer bob_viewer(*bob);
  EXPECT_FALSE(bob_viewer.screen().image.has_value());
  EXPECT_TRUE(bob_viewer.screen().text.empty());

  const std::vector<media::Image> images = {
      render_scene(media::make_medical_scene(64, 64), 1),
      render_scene(media::make_crisis_scene(80, 48, 1), 2),
      render_scene(media::make_medical_scene(48, 72), 3)};
  const std::vector<std::string> ids = {"scan-1", "scan-2", "scan-3"};
  for (std::size_t i = 0; i < images.size(); ++i) {
    ASSERT_TRUE(
        alice_viewer.share(images[i], ids[i], "view " + ids[i]).ok());
    settle();
  }

  ASSERT_EQ(bob_viewer.displays().size(), 3u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Display& display = bob_viewer.displays()[i];
    EXPECT_EQ(display.object_id, ids[i]);
    EXPECT_EQ(display.modality, media::Modality::image);
    EXPECT_EQ(display.report.packets_used, 16);
  }
  const Screen& screen = bob_viewer.screen();
  ASSERT_TRUE(screen.image.has_value());
  EXPECT_EQ(screen.image->width(), 48);
  EXPECT_EQ(screen.image->height(), 72);
  EXPECT_EQ(screen.image->pixels(), images[2].pixels());
  EXPECT_NE(screen.image->pixels(), images[0].pixels());
  EXPECT_EQ(screen.text, "view scan-3");
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
