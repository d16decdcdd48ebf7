// §6.3 companion — the base station's modality thresholding: sweep a
// client's SIR through the grade thresholds and report the forwarded
// data type plus its measured byte cost for a real image (full pyramid
// vs sketch vs text description).
#include <cstdio>

#include "bench_common.hpp"
#include "collabqos/core/basestation_peer.hpp"
#include "collabqos/media/codec.hpp"
#include "collabqos/media/sketch.hpp"
#include "collabqos/wireless/basestation.hpp"

using namespace collabqos;

int main() {
  const media::Image image =
      render_scene(media::make_crisis_scene(512, 512, 1));
  media::ImageMedia media_in;
  media_in.width = media_in.height = 512;
  media_in.channels = 1;
  media_in.description = "overhead view of the incident area";
  media_in.encoded = media::encode_progressive(image);
  const media::MediaObject object(std::move(media_in));
  const auto suite = media::TransformerSuite::with_builtins();

  std::printf(
      "Base-station modality thresholding (paper §6.3: thresholds for\n"
      "text-only, text+base-image sketch, or full image description)\n");
  for (int i = 0; i < 78; ++i) std::putchar('-');
  std::putchar('\n');
  std::printf("%10s %-14s %14s %10s\n", "SIR dB", "grade", "fwd bytes",
              "vs full");

  const std::size_t full_bytes = object.size_bytes();
  for (double sir = -10.0; sir <= 10.0; sir += 2.0) {
    const wireless::ModalityGrade grade = wireless::grade_for_sir(sir);
    if (grade == wireless::ModalityGrade::none) {
      std::printf("%10.1f %-14s %14s %10s\n", sir, "none", "(dropped)", "-");
      continue;
    }
    auto adapted =
        core::adapt_media(object, core::decision_for_grade(grade), suite);
    if (!adapted) {
      std::fprintf(stderr, "adaptation failed\n");
      return 1;
    }
    const std::size_t bytes = adapted.value().second.bytes_used;
    std::printf("%10.1f %-14s %14zu %9.4fx\n", sir,
                std::string(to_string(grade)).c_str(), bytes,
                static_cast<double>(bytes) / static_cast<double>(full_bytes));
  }
  for (int i = 0; i < 78; ++i) std::putchar('-');
  std::putchar('\n');
  std::printf(
      "shape check: forwarded volume collapses by orders of magnitude at\n"
      "each threshold crossing — how the BS keeps weak clients in-session.\n");
  collabqos::bench::print_metrics_snapshot();
  return 0;
}
