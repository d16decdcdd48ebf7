// Media pipeline micro-benchmarks: progressive encode/decode at several
// prefix depths, sketch extraction, and the modality transformers. The
// `workload` cases use perfbench's imagery scene (256x256 gray, seed 1),
// decoded at the prefixes its receivers use (1, 2, 4, 8 and all 16
// packets; the mean accepted count is about 11, but no receiver decodes
// 11), and a 512x512 colour scene decoded at 4, 11 and 16 packets.
#include <benchmark/benchmark.h>

#include "collabqos/media/codec.hpp"
#include "collabqos/media/sketch.hpp"
#include "collabqos/media/transform.hpp"

namespace {

using namespace collabqos;

const media::Image& bench_image() {
  static const media::Image image =
      render_scene(media::make_crisis_scene(512, 512, 1));
  return image;
}

void BM_ProgressiveEncode(benchmark::State& state) {
  const media::Image& image = bench_image();
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::encode_progressive(image));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.raw_bytes()));
}
BENCHMARK(BM_ProgressiveEncode);

void BM_ProgressiveDecodePrefix(benchmark::State& state) {
  const media::EncodedImage encoded = media::encode_progressive(bench_image());
  const auto packets = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::decode_progressive(encoded, packets));
  }
}
BENCHMARK(BM_ProgressiveDecodePrefix)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void BM_SketchExtract(benchmark::State& state) {
  const media::Image& image = bench_image();
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::extract_sketch(image, "scene"));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.raw_bytes()));
}
BENCHMARK(BM_SketchExtract);

const media::Image& imagery_scene() {
  static const media::Image image =
      render_scene(media::make_crisis_scene(256, 256, 1), 1);
  return image;
}

const media::Image& color_scene() {
  static const media::Image image =
      render_scene(media::make_crisis_scene(512, 512, 3));
  return image;
}

void BM_WorkloadEncode(benchmark::State& state,
                       const media::Image& (*scene)()) {
  const media::Image& image = scene();
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::encode_progressive(image));
  }
}
BENCHMARK_CAPTURE(BM_WorkloadEncode, gray256, &imagery_scene);
BENCHMARK_CAPTURE(BM_WorkloadEncode, color512, &color_scene);

void BM_WorkloadDecode(benchmark::State& state,
                       const media::Image& (*scene)()) {
  const media::EncodedImage encoded = media::encode_progressive(scene());
  const auto packets = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::decode_progressive(encoded, packets));
  }
}
BENCHMARK_CAPTURE(BM_WorkloadDecode, gray256, &imagery_scene)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK_CAPTURE(BM_WorkloadDecode, color512, &color_scene)
    ->Arg(4)->Arg(11)->Arg(16);

void BM_WorkloadSketch(benchmark::State& state,
                       const media::Image& (*scene)()) {
  const media::Image& image = scene();
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::extract_sketch(image, "scene"));
  }
}
BENCHMARK_CAPTURE(BM_WorkloadSketch, gray256, &imagery_scene);
BENCHMARK_CAPTURE(BM_WorkloadSketch, color512, &color_scene);

void BM_TransformImageToText(benchmark::State& state) {
  const auto suite = media::TransformerSuite::with_builtins();
  media::ImageMedia m;
  m.width = m.height = 512;
  m.channels = 1;
  m.description = "overhead view";
  m.encoded = media::encode_progressive(bench_image());
  const media::MediaObject object(std::move(m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        suite.transform(object, media::Modality::text));
  }
}
BENCHMARK(BM_TransformImageToText);

void BM_TextToSpeech(benchmark::State& state) {
  const std::string text(static_cast<std::size_t>(state.range(0)), 'w');
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::synthesize_speech(text));
  }
}
BENCHMARK(BM_TextToSpeech)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
