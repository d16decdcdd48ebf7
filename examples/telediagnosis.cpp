// Medical telediagnosis — progressive imagery for heterogeneous experts.
//
// A scanning suite shares an axial slice into a consult session. A
// radiologist on a workstation demands a lossless-quality contract; a
// consultant on a loaded laptop accepts degradation; a physician who only
// wants the findings text sets an interest profile that rejects imagery
// outright and a capability that turns it into text. The same publication
// serves all three — nobody maintains rosters or per-recipient encodings.
#include <cstdio>
#include <memory>
#include <utility>

#include "collabqos/app/image_viewer.hpp"
#include "collabqos/core/workstation.hpp"

using namespace collabqos;

int main() {
  sim::Simulator simulator;
  net::Network network(simulator, 1895);  // Roentgen vintage
  core::SessionDirectory directory;
  pubsub::AttributeSet objective;
  objective.set("domain", "telediagnosis");
  objective.set("patient", "case-0042");
  const core::SessionInfo session =
      directory.create("consult-0042", objective, {}).take();

  // The scanner: just a publisher.
  core::Workstation scanner(network, session, "scanner", 1);

  // The radiologist's contract: never degrade below the full pyramid.
  core::QoSContract radiologist_contract;
  radiologist_contract.min_packets = 16;
  radiologist_contract.min_modality = media::Modality::image;
  core::Workstation radiologist(network, session, "radiologist", 2,
                                radiologist_contract);
  // Even though this host is loaded, the contract floor wins.
  radiologist.host().set_cpu_process(
      std::make_unique<sim::ConstantProcess>(85.0));

  // The consultant: default contract, heavily loaded laptop.
  core::Workstation consultant(network, session, "consultant", 3);
  consultant.host().set_page_fault_process(
      std::make_unique<sim::ConstantProcess>(80.0));  // ladder: 2 packets

  // The physician: interest profile accepts imagery only as text.
  core::Workstation physician(network, session, "physician", 4);
  physician.client().profile().set_interest(
      pubsub::Selector::parse("media.type == 'text'").take());
  physician.client().profile().add_capability(
      {"media.type", "image", "text"});

  app::ImageViewer radiologist_viewer(radiologist.client());
  app::ImageViewer consultant_viewer(consultant.client());
  app::ImageViewer physician_viewer(physician.client());

  const auto run = [&](double seconds) {
    simulator.run_until(simulator.now() + sim::Duration::seconds(seconds));
  };
  run(1.5);

  const media::Image slice = render_scene(media::make_medical_scene(512, 512));
  pubsub::AttributeSet content;
  content.set("media.type", "image");
  content.set("patient", "case-0042");
  media::ImageMedia payload;
  payload.width = payload.height = 512;
  payload.channels = 1;
  payload.description =
      "axial slice: two lesions near the fissure, largest 5% of field";
  payload.encoded = media::encode_progressive(slice);
  (void)scanner.client().share_media(media::MediaObject(std::move(payload)),
                                     pubsub::Selector::always(), content,
                                     "slice-17");
  run(5.0);

  std::printf("one publication, three presentations:\n\n");
  for (const auto& [station, viewer] :
       {std::pair{&radiologist, &radiologist_viewer},
        std::pair{&consultant, &consultant_viewer},
        std::pair{&physician, &physician_viewer}}) {
    const std::string& name = station->client().name();
    if (viewer->displays().empty()) {
      std::printf("%-14s received nothing\n", name.c_str());
      continue;
    }
    const app::Display& d = viewer->displays().back();
    std::printf("%-14s modality=%-6s packets=%2d bytes=%8zu", name.c_str(),
                std::string(media::to_string(d.modality)).c_str(),
                d.report.packets_used, d.report.bytes_used);
    const app::Screen& screen = viewer->screen();
    if (d.modality == media::Modality::image && screen.image.has_value()) {
      std::printf("  (lossless=%s)",
                  screen.image->pixels() == slice.pixels() ? "yes" : "no");
    }
    if (d.modality == media::Modality::text) {
      std::printf("\n               text: \"%s\"", screen.text.c_str());
    }
    std::printf("\n");
  }

  std::printf(
      "\nthe radiologist's QoS contract pinned 16 packets despite 85%% CPU;\n"
      "the consultant's policy ladder cut it to 2; the physician's profile\n"
      "turned the image into its findings text at the matching stage.\n");
  return 0;
}
