// Crisis management — the paper's motivating heterogeneous scenario.
//
// A command post (wired) and a field analyst (wired) collaborate with two
// responders on wireless handhelds behind a base station. The command
// post shares the incident overview image; each participant receives the
// richest representation their situation supports:
//   * the analyst gets the full progressive image;
//   * responder 1, close to the base station, gets the full image too;
//   * responder 2, far out with a weak signal, gets the text+sketch
//     abstraction — and upgrades to imagery after moving closer;
//   * chat and whiteboard traffic stays consistent for everyone.
#include <cstdio>
#include <memory>

#include "collabqos/app/chat.hpp"
#include "collabqos/app/image_viewer.hpp"
#include "collabqos/app/whiteboard.hpp"
#include "collabqos/core/basestation_peer.hpp"
#include "collabqos/core/thin_client.hpp"
#include "collabqos/core/workstation.hpp"

using namespace collabqos;

namespace {

void print_thin(const char* name, const core::ThinClient& client) {
  std::printf("  %-12s received:", name);
  for (const auto& [modality, count] : client.received_by_modality()) {
    std::printf(" %zux %s", count,
                std::string(media::to_string(modality)).c_str());
  }
  if (client.received_by_modality().empty()) std::printf(" nothing");
  std::printf("\n");
}

}  // namespace

int main() {
  sim::Simulator simulator;
  net::Network network(simulator, 911);
  core::SessionDirectory directory;

  pubsub::AttributeSet objective;
  objective.set("domain", "crisis");
  objective.set("incident", "warehouse-fire");
  const core::SessionInfo session =
      directory.create("incident-cmd", objective, {}).take();

  // Field units discover the session semantically, not by name.
  const auto found = directory.discover(
      pubsub::Selector::parse("domain == 'crisis'").take());
  std::printf("discovered %zu crisis session(s); joining '%s'\n\n",
              found.size(), found.front().name.c_str());

  core::Workstation command(network, session, "command-post", 1);
  core::Workstation analyst(network, session, "analyst", 2);
  app::ImageViewer command_viewer(command.client());
  app::ImageViewer analyst_viewer(analyst.client());
  app::ChatArea command_chat(command.client());
  app::ChatArea analyst_chat(analyst.client());
  app::Whiteboard command_board(command.client());

  // The wireless cell: base station as gateway + two handheld responders.
  core::BaseStationOptions bs_options;
  bs_options.channel.noise_kappa_db = 70.0;
  bs_options.radio.power_control_enabled = false;
  core::BaseStationPeer base_station(network, network.add_node("bs"),
                                     session, 900, bs_options);
  const auto make_thin = [&](const char* name, std::uint32_t station,
                             std::uint64_t peer, wireless::Position at) {
    core::ThinClientConfig config;
    config.name = name;
    config.position = at;
    config.tx_power_mw = 100.0;
    return std::make_unique<core::ThinClient>(
        network, network.add_node(name), session,
        wireless::make_station(station), peer, config);
  };
  auto responder1 = make_thin("responder-1", 1, 101, {25.0, 0.0});
  auto responder2 = make_thin("responder-2", 2, 102, {70.0, 0.0});

  for (auto* thin : {responder1.get(), responder2.get()}) {
    const auto assessment = thin->attach(base_station);
    if (!assessment.ok()) {
      std::fprintf(stderr, "attach failed\n");
      return 1;
    }
    std::printf("%s attached: SIR %.1f dB at %.0f m -> %s service\n",
                thin->station() == wireless::make_station(1) ? "responder-1"
                                                             : "responder-2",
                assessment.value().sir_db, assessment.value().distance_m,
                std::string(to_string(assessment.value().grade)).c_str());
  }
  std::printf("\n");

  const auto run = [&](double seconds) {
    simulator.run_until(simulator.now() + sim::Duration::seconds(seconds));
  };
  run(1.0);

  // --- act 1: the overview image goes out ------------------------------
  const media::Image overview =
      render_scene(media::make_crisis_scene(512, 512, 1));
  (void)command_chat.post("sharing the incident overview now");
  (void)command_viewer.share(
      overview, "overview-1",
      "warehouse fire: two buildings, staging area, access road");
  run(4.0);

  std::printf("after the first share:\n");
  print_thin("responder-1", *responder1);
  print_thin("responder-2", *responder2);
  std::printf("  analyst      received: %zu image display(s), packets=%d\n\n",
              analyst_viewer.displays().size(),
              analyst_viewer.displays().empty()
                  ? 0
                  : analyst_viewer.displays()[0].report.packets_used);

  // --- act 2: responder-2 closes in and the grade upgrades -------------
  (void)responder2->move({40.0, 0.0});
  (void)analyst_chat.post("responder-2, move toward the staging area");
  (void)command_viewer.share(overview, "overview-2",
                             "updated overview after repositioning");
  run(4.0);

  std::printf("after responder-2 moved to 40 m:\n");
  print_thin("responder-2", *responder2);

  // --- act 2b: a field photo comes back through the gateway ------------
  media::ImageMedia field_photo;
  const media::Image field_view =
      render_scene(media::make_crisis_scene(256, 256, 1), /*seed=*/99);
  field_photo.width = field_photo.height = 256;
  field_photo.channels = 1;
  field_photo.description = "ground view from the staging area";
  field_photo.encoded = media::encode_progressive(field_view);
  pubsub::AttributeSet photo_attrs;
  photo_attrs.set("media.type", "image");
  (void)responder1->share_media(media::MediaObject(std::move(field_photo)),
                                pubsub::Selector::always(), photo_attrs);
  run(3.0);
  std::printf("\nfield photo relayed by the base station:\n");
  std::printf("  analyst now holds %zu display(s); latest modality=%s\n",
              analyst_viewer.displays().size(),
              std::string(media::to_string(
                              analyst_viewer.displays().back().modality))
                  .c_str());
  print_thin("responder-2", *responder2);

  // --- act 3: shared annotations stay consistent everywhere ------------
  (void)command_board.draw({0.2, 0.2, 0.8, 0.8, 0xFFFF0000, 3.0, 0});
  run(2.0);
  app::Whiteboard analyst_board(analyst.client());
  std::printf(
      "\nwhiteboard: command drew %zu stroke(s); analyst's replica holds "
      "%zu\n",
      command_board.strokes().size(), analyst_board.strokes().size());
  std::printf("chat transcript at the analyst:\n");
  for (const auto& line : analyst_chat.transcript()) {
    std::printf("  [peer %llu] %s\n",
                static_cast<unsigned long long>(line.author),
                line.text.c_str());
  }
  std::printf("\nbase station: %llu uplink events, %llu downlink unicasts, "
              "%llu suppressed by grade\n",
              static_cast<unsigned long long>(base_station.stats().uplink_events),
              static_cast<unsigned long long>(
                  base_station.stats().downlink_unicasts),
              static_cast<unsigned long long>(
                  base_station.stats().suppressed_by_grade));
  return 0;
}
