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

#include "collabqos/app/image_viewer.hpp"
#include "collabqos/core/client.hpp"
#include "collabqos/snmp/host_mib.hpp"

using namespace collabqos;

namespace {

struct Participant {
  net::NodeId node;
  std::unique_ptr<sim::Host> host;
  std::unique_ptr<snmp::Agent> agent;
  std::unique_ptr<snmp::Manager> manager;
  std::unique_ptr<core::CollaborationClient> client;
  std::unique_ptr<app::ImageViewer> viewer;
};

}  // namespace

int main() {
  sim::Simulator simulator;
  net::Network network(simulator, 1895);  // Roentgen vintage
  core::SessionDirectory directory;
  pubsub::AttributeSet objective;
  objective.set("domain", "telediagnosis");
  objective.set("patient", "case-0042");
  const core::SessionInfo session =
      directory.create("consult-0042", objective, {}).take();

  const auto make_participant = [&](const char* name, std::uint64_t id,
                                    core::QoSContract contract) {
    Participant p;
    p.node = network.add_node(name);
    p.host = std::make_unique<sim::Host>(simulator, name);
    p.agent = std::make_unique<snmp::Agent>(network, p.node, "public", "rw");
    snmp::install_host_instrumentation(*p.agent, *p.host, simulator);
    p.manager = std::make_unique<snmp::Manager>(network, p.node);
    core::ClientConfig config;
    config.name = name;
    core::InferenceEngine engine(contract,
                                 core::PolicyDatabase::with_defaults());
    p.client = std::make_unique<core::CollaborationClient>(
        network, p.node, session, id, p.manager.get(), std::move(engine),
        config);
    p.viewer = std::make_unique<app::ImageViewer>(*p.client);
    return p;
  };

  // The scanner: just a publisher.
  Participant scanner = make_participant("scanner", 1, {});

  // The radiologist's contract: never degrade below the full pyramid.
  core::QoSContract radiologist_contract;
  radiologist_contract.min_packets = 16;
  radiologist_contract.min_modality = media::Modality::image;
  Participant radiologist =
      make_participant("radiologist", 2, radiologist_contract);
  // Even though this host is loaded, the contract floor wins.
  radiologist.host->set_cpu_process(
      std::make_unique<sim::ConstantProcess>(85.0));

  // The consultant: default contract, heavily loaded laptop.
  Participant consultant = make_participant("consultant", 3, {});
  consultant.host->set_page_fault_process(
      std::make_unique<sim::ConstantProcess>(80.0));  // ladder: 2 packets

  // The physician: interest profile accepts imagery only as text.
  Participant physician = make_participant("physician", 4, {});
  physician.client->profile().set_interest(
      pubsub::Selector::parse("media.type == 'text'").take());
  physician.client->profile().add_capability(
      {"media.type", "image", "text"});

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
  (void)scanner.client->share_media(media::MediaObject(std::move(payload)),
                                    pubsub::Selector::always(), content,
                                    "slice-17");
  run(5.0);

  std::printf("one publication, three presentations:\n\n");
  for (const Participant* p :
       {&radiologist, &consultant, &physician}) {
    if (p->viewer->displays().empty()) {
      std::printf("%-14s received nothing\n", p->client->name().c_str());
      continue;
    }
    const app::Display& d = p->viewer->displays().back();
    std::printf("%-14s modality=%-6s packets=%2d bytes=%8zu",
                p->client->name().c_str(),
                std::string(media::to_string(d.modality)).c_str(),
                d.report.packets_used, d.report.bytes_used);
    if (d.modality == media::Modality::image && d.image.has_value()) {
      std::printf("  (lossless=%s)",
                  d.image->pixels() == slice.pixels() ? "yes" : "no");
    }
    if (d.modality == media::Modality::text) {
      std::printf("\n               text: \"%s\"", d.text.c_str());
    }
    std::printf("\n");
  }

  std::printf(
      "\nthe radiologist's QoS contract pinned 16 packets despite 85%% CPU;\n"
      "the consultant's policy ladder cut it to 2; the physician's profile\n"
      "turned the image into its findings text at the matching stage.\n");
  return 0;
}
