// Figure 6 — "ImageViewer parameters versus Page Faults".
//
// Paper: as page faults at the local host rise from 30 to 100, the number
// of image packets the inference engine accepts drops 16 -> 1 (powers of
// 2), the compression ratio of the displayed image rises 3.6 -> 131, and
// the quality (bits per pixel) falls 2.1 -> 0.1.
//
// This bench drives the full stack: a host whose page-fault counter is a
// constant process at each sweep point, read through the embedded SNMP
// extension agent by the client's system-state interface, fed to the
// inference engine, and applied to a real progressive-coded 512x512
// grayscale image shared over the multicast substrate.
#include "bench_common.hpp"
#include "bench_report.hpp"

#include "collabqos/media/quality.hpp"

using namespace collabqos;

int main(int argc, char** argv) {
  bench::ObserveMode mode(argc, argv, "fig6_pagefaults");
  bench::FigReport report_out("fig6_pagefaults");
  std::printf("Figure 6: ImageViewer parameters vs host page faults\n");
  std::printf("(paper ranges: packets 16->1, CR 3.6->131, BPP 2.1->0.1)\n");
  bench::print_rule();
  std::printf("%12s %10s %12s %12s %12s\n", "page-faults", "packets",
              "kilobytes", "compr-ratio", "bits/pixel");
  bench::print_rule();

  const media::Image image =
      render_scene(media::make_crisis_scene(512, 512, 1));

  for (int page_faults = 30; page_faults <= 100;
       page_faults += mode.stride(5, 35)) {
    bench::Testbed bed;
    core::Workstation sender(bed.network(), bed.session(), "sender", 1);
    core::Workstation receiver(bed.network(), bed.session(), "receiver", 2);
    app::ImageViewer sender_viewer(sender.client());
    receiver.host().set_page_fault_process(
        std::make_unique<sim::ConstantProcess>(page_faults));
    bed.run_for(2.0);  // SNMP polls settle
    if (!sender_viewer.share(image, "fig6", "incident overview").ok()) {
      std::fprintf(stderr, "share failed\n");
      return 1;
    }
    bed.run_for(5.0);
    if (receiver.client().receptions().empty()) {
      std::fprintf(stderr, "no reception at pf=%d\n", page_faults);
      return 1;
    }
    const core::MediaAdaptationReport& report =
        receiver.client().receptions().back();
    std::printf("%12d %10d %12.1f %12.2f %12.3f\n", page_faults,
                report.packets_used,
                static_cast<double>(report.bytes_used) / 1024.0,
                report.compression_ratio, report.bits_per_pixel);
    report_out.add_row()
        .set("page_faults", page_faults)
        .set("packets", report.packets_used)
        .set("kilobytes", static_cast<double>(report.bytes_used) / 1024.0)
        .set("compression_ratio", report.compression_ratio)
        .set("bits_per_pixel", report.bits_per_pixel);
  }
  bench::print_rule();
  std::printf(
      "shape check: packets non-increasing in powers of two; CR rises,\n"
      "BPP falls monotonically with page-fault pressure (cf. paper Fig 6).\n");
  bench::print_metrics_snapshot();
  return report_out.write() ? 0 : 1;
}
