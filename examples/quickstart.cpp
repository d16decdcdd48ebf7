// Quickstart: the smallest complete collabqos program.
//
// Two wired workstations join a collaboration session; one shares an
// image through the semantic pub/sub substrate; the other's inference
// engine — fed by its embedded SNMP agent — adapts what gets displayed
// as the receiving host comes under memory pressure.
//
// Build & run:   ./examples/quickstart
#include <cstdio>
#include <memory>

#include "collabqos/app/image_viewer.hpp"
#include "collabqos/core/workstation.hpp"

using namespace collabqos;

int main() {
  // 1. A virtual clock and a simulated LAN.
  sim::Simulator simulator;
  net::Network network(simulator, /*seed=*/1);

  // 2. A collaboration session published in the directory.
  core::SessionDirectory directory;
  pubsub::AttributeSet objective;
  objective.set("domain", "demo");
  const core::SessionInfo session =
      directory.create("quickstart", objective, {}).take();

  // 3. Two workstations. Each gets a simulated host, an embedded SNMP
  //    extension agent, an SNMP manager, and a collaboration client with
  //    the default (paper-calibrated) policy database.
  core::Workstation alice(network, session, "alice", 1);
  core::Workstation bob(network, session, "bob", 2);

  app::ImageViewer alice_viewer(alice.client());
  app::ImageViewer bob_viewer(bob.client());

  // 4. Share an image while Bob's host is idle, then again under heavy
  //    page-fault pressure.
  const media::Image image =
      render_scene(media::make_crisis_scene(256, 256, 1));
  const auto run = [&](double seconds) {
    simulator.run_until(simulator.now() + sim::Duration::seconds(seconds));
  };

  run(1.0);  // let the first SNMP polls land
  (void)alice_viewer.share(image, "img-idle", "the area, host idle");
  run(3.0);

  bob.host().set_page_fault_process(
      std::make_unique<sim::ConstantProcess>(90.0));  // ladder: 1 packet
  run(2.0);
  (void)alice_viewer.share(image, "img-pressed", "the area, host pressed");
  run(3.0);

  // 5. What did Bob see?
  for (const app::Display& display : bob_viewer.displays()) {
    std::printf(
        "object %-12s modality=%-6s packets=%2d  %6.1f KiB  CR=%6.2f  "
        "BPP=%.3f\n",
        display.object_id.c_str(),
        std::string(media::to_string(display.modality)).c_str(),
        display.report.packets_used,
        static_cast<double>(display.report.bytes_used) / 1024.0,
        display.report.compression_ratio, display.report.bits_per_pixel);
  }
  std::printf(
      "\nThe same image cost ~%.0fx less to display under memory pressure\n"
      "while staying semantically useful — the framework's core promise.\n",
      static_cast<double>(bob_viewer.displays()[0].report.bytes_used) /
          static_cast<double>(bob_viewer.displays()[1].report.bytes_used));
  return 0;
}
