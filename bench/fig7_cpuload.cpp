// Figure 7 — "ImageViewer parameters versus CPU Load".
//
// Paper: CPU load 30 -> 100% drops accepted packets 16 -> 0; BPP varies
// 14.3 -> 0.7 and compression ratio 1.6 -> 32.7 (colour image, 24 bpp
// baseline: 24/14.3 = 1.68 and 24/0.7 = 34.3 match the paper's endpoints).
// At zero packets the viewer falls back to the textual description.
#include "bench_common.hpp"
#include "bench_report.hpp"

#include "collabqos/media/quality.hpp"

using namespace collabqos;

int main(int argc, char** argv) {
  bench::ObserveMode mode(argc, argv, "fig7_cpuload");
  bench::FigReport report_out("fig7_cpuload");
  std::printf("Figure 7: ImageViewer parameters vs CPU load (colour)\n");
  std::printf("(paper ranges: packets 16->0, CR 1.6->32.7, BPP 14.3->0.7)\n");
  bench::print_rule();
  std::printf("%10s %10s %12s %12s %12s  %s\n", "cpu-load", "packets",
              "kilobytes", "compr-ratio", "bits/pixel", "presented");
  bench::print_rule();

  const media::Image image =
      render_scene(media::make_crisis_scene(512, 512, 3));

  for (int cpu = 30; cpu <= 100; cpu += mode.stride(5, 35)) {
    bench::Testbed bed;
    core::Workstation sender(bed.network(), bed.session(), "sender", 1);
    core::Workstation receiver(bed.network(), bed.session(), "receiver", 2);
    app::ImageViewer sender_viewer(sender.client());
    app::ImageViewer receiver_viewer(receiver.client());
    receiver.host().set_cpu_process(
        std::make_unique<sim::ConstantProcess>(cpu));
    bed.run_for(2.0);
    if (!sender_viewer.share(image, "fig7", "incident overview").ok()) {
      std::fprintf(stderr, "share failed\n");
      return 1;
    }
    bed.run_for(6.0);
    if (receiver_viewer.displays().empty()) {
      std::fprintf(stderr, "no reception at cpu=%d\n", cpu);
      return 1;
    }
    const core::MediaAdaptationReport& report =
        receiver_viewer.displays().back().report;
    std::printf("%9d%% %10d %12.1f %12.2f %12.3f  %s\n", cpu,
                report.packets_used,
                static_cast<double>(report.bytes_used) / 1024.0,
                report.compression_ratio, report.bits_per_pixel,
                std::string(media::to_string(report.presented_modality))
                    .c_str());
    report_out.add_row()
        .set("cpu_load", cpu)
        .set("packets", report.packets_used)
        .set("kilobytes", static_cast<double>(report.bytes_used) / 1024.0)
        .set("compression_ratio", report.compression_ratio)
        .set("bits_per_pixel", report.bits_per_pixel)
        .set("presented", media::to_string(report.presented_modality));
  }
  bench::print_rule();
  std::printf(
      "shape check: packets fall to 0 at saturation (text fallback);\n"
      "CR rises and BPP falls monotonically with load (cf. paper Fig 7).\n");
  bench::print_metrics_snapshot();
  return report_out.write() ? 0 : 1;
}
