#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "collabqos/media/bitio.hpp"
#include "collabqos/media/haar.hpp"
#include "collabqos/media/image.hpp"
#include "collabqos/media/media_object.hpp"
#include "collabqos/media/quality.hpp"
#include "collabqos/media/sketch.hpp"
#include "collabqos/media/transform.hpp"
#include "collabqos/util/rng.hpp"

namespace collabqos::media {
namespace {

// ----------------------------------------------------------------- Image

TEST(Image, ConstructionAndAccess) {
  Image image(4, 3, 1);
  EXPECT_EQ(image.width(), 4);
  EXPECT_EQ(image.height(), 3);
  EXPECT_EQ(image.raw_bytes(), 12u);
  EXPECT_EQ(image.pixel_count(), 12u);
  image.set(2, 1, 0, 200);
  EXPECT_EQ(image.at(2, 1, 0), 200);
  EXPECT_EQ(image.at(0, 0, 0), 0);
}

TEST(Image, GrayscaleLumaWeights) {
  Image color(2, 1, 3);
  color.set(0, 0, 0, 255);  // pure red
  color.set(1, 0, 1, 255);  // pure green
  std::uint8_t gray[2] = {};
  color.gray_row(0, gray);
  EXPECT_NEAR(gray[0], 76, 1);   // 0.299*255
  EXPECT_NEAR(gray[1], 149, 1);  // 0.587*255
}

TEST(Image, GrayscaleOfGrayIsIdentity) {
  Scene scene = make_medical_scene(32, 32);
  const Image image = render_scene(scene);
  std::vector<std::uint8_t> gray(image.pixels().size());
  for (int y = 0; y < image.height(); ++y) {
    image.gray_row(y, gray.data() + static_cast<std::size_t>(y) * 32);
  }
  EXPECT_EQ(gray, image.pixels());
}

TEST(Scene, RenderIsDeterministic) {
  const Scene scene = make_crisis_scene(64, 64, 1);
  const Image a = render_scene(scene, 7);
  const Image b = render_scene(scene, 7);
  EXPECT_EQ(a.pixels(), b.pixels());
  const Image c = render_scene(scene, 8);
  EXPECT_NE(c.pixels(), a.pixels());
}

TEST(Scene, ShapesArePainted) {
  Scene scene;
  scene.width = scene.height = 64;
  scene.channels = 1;
  scene.background = 10;
  scene.texture_amplitude = 0.0;
  scene.noise_sigma = 0.0;
  scene.shapes = {{SceneShape::Kind::circle, 0.5, 0.5, 0.2, 0.0, 250, "dot"}};
  const Image image = render_scene(scene);
  EXPECT_EQ(image.at(32, 32, 0), 250);
  EXPECT_EQ(image.at(2, 2, 0), 10);
}

// ----------------------------------------------------------------- BitIO

TEST(BitIO, BitsRoundTrip) {
  BitWriter w;
  w.put(true);
  w.put(false);
  w.put_bits(0b1011, 4);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_TRUE(r.get());
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.get());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.get_bits(4), 0b1011u);
  EXPECT_TRUE(r.ok());
}

TEST(BitIO, GammaRoundTrip) {
  BitWriter w;
  const std::uint64_t values[] = {1, 2, 3, 7, 8, 100, 65535, 1u << 20};
  for (const auto v : values) w.put_gamma(v);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (const auto v : values) {
    EXPECT_EQ(r.get_gamma(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(BitIO, RunsIncludeZero) {
  BitWriter w;
  w.put_run(0);
  w.put_run(5);
  w.put_run(1000000);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.get_run(), 0u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.get_run(), 5u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.get_run(), 1000000u);
  EXPECT_TRUE(r.ok());
}

TEST(BitIO, ExhaustionIsError) {
  BitWriter w;
  w.put(true);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (int i = 0; i < 8; ++i) {
    (void)r.get();
    EXPECT_TRUE(r.ok());
  }
  (void)r.get();
  EXPECT_FALSE(r.ok());
}

TEST(BitIO, GammaExtremesAndOverlongCodes) {
  BitWriter w;
  const std::uint64_t values[] = {~std::uint64_t{0}, std::uint64_t{1} << 32,
                                  (std::uint64_t{1} << 28) + 3, 1};
  for (const auto v : values) w.put_gamma(v);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (const auto v : values) EXPECT_EQ(r.get_gamma(), v);
  EXPECT_TRUE(r.ok());

  const std::vector<std::uint8_t> zeros(9, 0);  // 72 zero bits
  BitReader overlong(zeros);
  (void)overlong.get_gamma();
  EXPECT_FALSE(overlong.ok());
}

// ------------------------------------------------------------------ Haar

class HaarRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HaarRoundTrip, PerfectReconstruction) {
  const auto [width, height, levels] = GetParam();
  Rng rng(1234);
  std::vector<std::int32_t> plane(static_cast<std::size_t>(width) * height);
  for (auto& p : plane) {
    p = static_cast<std::int32_t>(rng.uniform_int(0, 255));
  }
  std::vector<std::int32_t> data = plane;
  std::vector<std::int32_t> scratch(plane.size());
  forward_haar_inplace(data.data(), width, height, levels, scratch.data());
  inverse_haar_inplace(data.data(), width, height, levels, scratch.data());
  EXPECT_EQ(data, plane);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HaarRoundTrip,
    ::testing::Values(std::tuple{8, 8, 3}, std::tuple{16, 16, 4},
                      std::tuple{17, 13, 4},   // odd extents
                      std::tuple{1, 64, 5},    // degenerate columns
                      std::tuple{64, 1, 5},    // degenerate rows
                      std::tuple{2, 2, 1}, std::tuple{5, 7, 8},
                      std::tuple{128, 128, 5}));

/// The subband scan as plane indices: each rectangle row by row.
std::vector<std::uint32_t> scan_order(int width, int height, int levels) {
  std::vector<std::uint32_t> order;
  for (const SubbandRect& r : subband_rects(width, height, levels)) {
    for (int y = r.y0; y < r.y1; ++y) {
      for (int x = r.x0; x < r.x1; ++x) {
        order.push_back(static_cast<std::uint32_t>(y * width + x));
      }
    }
  }
  return order;
}

TEST(Haar, ScanOrderIsPermutation) {
  const auto order = scan_order(17, 13, 4);
  EXPECT_EQ(order.size(), 17u * 13u);
  std::set<std::uint32_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), order.size());
  EXPECT_EQ(*std::max_element(order.begin(), order.end()), 17u * 13u - 1);
}

TEST(Haar, ScanOrderStartsAtCoarsestLl) {
  const auto order = scan_order(16, 16, 4);
  // After 4 levels the LL region is 1x1: index 0 comes first.
  EXPECT_EQ(order[0], 0u);
}

TEST(Haar, LlBandHoldsAverages) {
  // A constant image transforms to a constant LL and zero details.
  std::vector<std::int32_t> c(64 * 64, 100);
  std::vector<std::int32_t> scratch(c.size());
  forward_haar_inplace(c.data(), 64, 64, 3, scratch.data());
  const auto at = [&c](int x, int y) { return c[y * 64 + x]; };
  EXPECT_EQ(at(0, 0), 100);
  EXPECT_EQ(at(63, 63), 0);
  EXPECT_EQ(at(40, 3), 0);
}

// ---------------------------------------------------------------- Sketch

TEST(Sketch, RoundTripCodec) {
  const Scene scene = make_crisis_scene(128, 128, 1);
  const Image image = render_scene(scene);
  const Sketch sketch = extract_sketch(image, scene.caption);
  auto decoded = Sketch::decode(sketch.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().width, sketch.width);
  EXPECT_EQ(decoded.value().height, sketch.height);
  EXPECT_EQ(decoded.value().description, sketch.description);
  EXPECT_EQ(decoded.value().rle, sketch.rle);
}

TEST(Sketch, OversizedSketchRejectedBeforeAllocation) {
  // 32768x32768 with a 1-byte RLE used to zero-fill 1 GiB before failing.
  Sketch huge;
  huge.width = huge.height = 32768;
  huge.source_width = huge.source_height = 32768;
  huge.rle = {0x80};
  auto decoded = Sketch::decode(huge.encode());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), Errc::malformed);
  auto rendered = render_sketch(huge);
  ASSERT_FALSE(rendered.ok());
  EXPECT_EQ(rendered.code(), Errc::malformed);
}

TEST(Sketch, ImplausibleSourceExtentIsRejected) {
  // The source extent is two more varints; each used to narrow to int
  // unchecked, so 2^40+7 x 2^63-1 decoded "ok" as 7 x -1.
  Sketch base;
  base.width = base.height = 4;
  base.source_width = base.source_height = 16;
  base.rle = {0x80};
  ASSERT_TRUE(Sketch::decode(base.encode()).ok());
  const auto with_source = [&](std::uint64_t w, std::uint64_t h) {
    serde::Writer writer;
    const serde::Bytes good = base.encode();
    // Magic, width and height are one byte each here; the source extent
    // follows, then the description and the RLE blob.
    writer.u8(good[0]);
    writer.varint(4);
    writer.varint(4);
    writer.varint(w);
    writer.varint(h);
    writer.string(base.description);
    writer.blob(base.rle);
    return std::move(writer).take();
  };
  ASSERT_TRUE(Sketch::decode(with_source(16, 16)).ok());
  for (const auto& [w, h] :
       {std::pair<std::uint64_t, std::uint64_t>{(1ull << 40) + 7,
                                                (1ull << 63) - 1},
        {0, 16}, {16, 0}, {(1u << 15) + 1, 1}, {1u << 15, 1u << 15},
        {~0ull, ~0ull}}) {
    auto decoded = Sketch::decode(with_source(w, h));
    ASSERT_FALSE(decoded.ok()) << w << " x " << h;
    EXPECT_EQ(decoded.code(), Errc::malformed);
  }
  auto widest = Sketch::decode(with_source(1u << 15, 16));
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest.value().source_width, 1 << 15);
  EXPECT_EQ(widest.value().source_height, 16);
}

TEST(Sketch, RendersAtDecimatedResolution) {
  const Scene scene = make_crisis_scene(128, 128, 1);
  const Image image = render_scene(scene);
  SketchParams params;
  params.decimation = 4;
  const Sketch sketch = extract_sketch(image, "x", params);
  EXPECT_EQ(sketch.width, 32);
  EXPECT_EQ(sketch.height, 32);
  auto rendered = render_sketch(sketch);
  ASSERT_TRUE(rendered.ok());
  EXPECT_EQ(rendered.value().width(), 32);
  // The sketch has edges (non-empty) but is mostly background.
  std::size_t edges = 0;
  for (const auto p : rendered.value().pixels()) {
    if (p != 0) ++edges;
  }
  EXPECT_GT(edges, 10u);
  EXPECT_LT(edges, rendered.value().pixel_count() / 2);
}

TEST(Sketch, MassivelySmallerThanRaw) {
  const Scene scene = make_crisis_scene(1024, 1024, 1);
  const Image image = render_scene(scene);
  SketchParams params;
  params.decimation = 8;
  const Sketch sketch = extract_sketch(image, "incident area", params);
  // Paper: "up to 2000 times lesser data". Our default scene reaches
  // several hundred x; assert a conservative floor.
  EXPECT_LT(sketch.encoded_bytes() * 100, image.raw_bytes());
}

TEST(Sketch, EdgesTrackShapeBoundaries) {
  Scene scene;
  scene.width = scene.height = 128;
  scene.channels = 1;
  scene.background = 20;
  scene.texture_amplitude = 0.0;
  scene.noise_sigma = 0.0;
  scene.shapes = {
      {SceneShape::Kind::rectangle, 0.5, 0.5, 0.25, 0.25, 240, "box"}};
  const Image image = render_scene(scene);
  SketchParams params;
  params.decimation = 1;
  params.threshold_quantile = 0.95;
  const Sketch sketch = extract_sketch(image, "box", params);
  auto rendered = render_sketch(sketch).take();
  // The rectangle border (x in [32,96] at y=32) must be marked...
  EXPECT_NE(rendered.at(64, 32, 0), 0);
  EXPECT_NE(rendered.at(32, 64, 0), 0);
  // ...while deep inside and far outside stay clean.
  EXPECT_EQ(rendered.at(64, 64, 0), 0);
  EXPECT_EQ(rendered.at(5, 5, 0), 0);
}

TEST(Sketch, DecodeRejectsGarbage) {
  const serde::Bytes garbage = {9, 9, 9};
  EXPECT_FALSE(Sketch::decode(garbage).ok());
}

// --------------------------------------------------------------- Quality

TEST(Quality, PsnrIdenticalIsInfinite) {
  const Image image = render_scene(make_medical_scene(32, 32));
  EXPECT_TRUE(std::isinf(psnr(image, image)));
  EXPECT_DOUBLE_EQ(mean_squared_error(image, image), 0.0);
}

TEST(Quality, PsnrDecreasesWithNoise) {
  const Image image = render_scene(make_medical_scene(64, 64));
  Image slightly = image;
  Image heavily = image;
  Rng rng(3);
  for (std::size_t i = 0; i < slightly.pixels().size(); ++i) {
    slightly.pixels()[i] = static_cast<std::uint8_t>(std::clamp(
        static_cast<int>(slightly.pixels()[i]) +
            static_cast<int>(rng.uniform_int(-2, 2)), 0, 255));
    heavily.pixels()[i] = static_cast<std::uint8_t>(std::clamp(
        static_cast<int>(heavily.pixels()[i]) +
            static_cast<int>(rng.uniform_int(-40, 40)), 0, 255));
  }
  EXPECT_GT(psnr(image, slightly), psnr(image, heavily));
}

TEST(Quality, BppAndRatio) {
  EXPECT_DOUBLE_EQ(bits_per_pixel(1000, 1000), 8.0);
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 250), 4.0);
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 0), 0.0);
  EXPECT_DOUBLE_EQ(bits_per_pixel(1000, 0), 0.0);
}

// ----------------------------------------------------------- MediaObject

TEST(Media, ModalityNamesRoundTrip) {
  for (const Modality modality : {Modality::text, Modality::speech,
                                  Modality::sketch, Modality::image}) {
    EXPECT_EQ(modality_from_string(to_string(modality)), modality);
  }
  EXPECT_EQ(modality_from_string("video"), std::nullopt);
  EXPECT_EQ(modality_from_string(""), std::nullopt);
  EXPECT_EQ(modality_from_string("Text"), std::nullopt);
}

TEST(MediaObject, TextRoundTrip) {
  const MediaObject object(TextMedia{"status: all clear"});
  auto decoded = MediaObject::decode(object.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().modality(), Modality::text);
  EXPECT_EQ(decoded.value().get_if<TextMedia>()->text, "status: all clear");
}

TEST(MediaObject, SpeechRoundTrip) {
  const MediaObject object(synthesize_speech("evacuate sector four"));
  auto decoded = MediaObject::decode(object.encode());
  ASSERT_TRUE(decoded.ok());
  const auto* speech = decoded.value().get_if<SpeechMedia>();
  ASSERT_NE(speech, nullptr);
  EXPECT_EQ(speech->transcript, "evacuate sector four");
  EXPECT_FALSE(speech->samples.empty());
  EXPECT_GT(speech->duration_seconds, 0.0);
}

TEST(MediaObject, SketchRoundTrip) {
  const Image image = render_scene(make_crisis_scene(64, 64, 1));
  const MediaObject object(SketchMedia{extract_sketch(image, "map")});
  auto decoded = MediaObject::decode(object.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().modality(), Modality::sketch);
  EXPECT_EQ(decoded.value().get_if<SketchMedia>()->sketch.description, "map");
}

TEST(MediaObject, ImageRoundTrip) {
  const Image image = render_scene(make_crisis_scene(64, 64, 1));
  ImageMedia media;
  media.width = 64;
  media.height = 64;
  media.channels = 1;
  media.description = "scene";
  media.encoded = encode_progressive(image);
  const std::size_t packet_count = media.encoded.packets.size();
  const MediaObject object(std::move(media));
  auto decoded = MediaObject::decode(object.encode());
  ASSERT_TRUE(decoded.ok());
  const auto* out = decoded.value().get_if<ImageMedia>();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->encoded.packets.size(), packet_count);
  auto restored = decode_progressive(out->encoded, packet_count);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().pixels(), image.pixels());
}

TEST(MediaObject, ThreePartImageFileRoundTrip) {
  // Paper §6.3: description + base sketch + full-resolution data travel
  // together.
  const Image image = render_scene(make_crisis_scene(96, 96, 1));
  ImageMedia media;
  media.width = media.height = 96;
  media.channels = 1;
  media.description = "staging area";
  media.encoded = encode_progressive(image);
  media.sketch = extract_sketch(image, media.description);
  ASSERT_TRUE(media.has_sketch());
  const MediaObject object(std::move(media));
  auto decoded = MediaObject::decode(object.encode());
  ASSERT_TRUE(decoded.ok());
  const auto* out = decoded.value().get_if<ImageMedia>();
  ASSERT_NE(out, nullptr);
  ASSERT_TRUE(out->has_sketch());
  EXPECT_EQ(out->sketch.rle, extract_sketch(image, "staging area").rle);
}

TEST(MediaObject, ImplausibleImageExtentIsRejected) {
  ImageMedia media;
  media.width = media.height = 64;
  media.channels = 1;
  media.description = "scene";
  media.encoded =
      encode_progressive(render_scene(make_crisis_scene(64, 64, 1)));
  const serde::Bytes valid = MediaObject(std::move(media)).encode();
  // The same object with its extent rewritten: magic and modality, the
  // two varints (64 takes one byte each), then the rest as encoded.
  const auto with_extent = [&valid](std::uint64_t width,
                                    std::uint64_t height) {
    serde::Writer w;
    w.u8(valid[0]);
    w.u8(valid[1]);
    w.varint(width);
    w.varint(height);
    serde::Bytes out = std::move(w).take();
    out.insert(out.end(), valid.begin() + 4, valid.end());
    return out;
  };
  ASSERT_TRUE(MediaObject::decode(with_extent(64, 64)).ok());
  EXPECT_TRUE(MediaObject::decode(with_extent(1u << 15, 511)).ok());
  const std::pair<std::uint64_t, std::uint64_t> implausible[] = {
      {(std::uint64_t{1} << 40) + 7, (std::uint64_t{1} << 63) - 1},
      {0, 64},
      {64, 0},
      {(1u << 15) + 1, 1},
      {4096, 4096},
  };
  for (const auto& [width, height] : implausible) {
    const auto decoded = MediaObject::decode(with_extent(width, height));
    EXPECT_FALSE(decoded.ok()) << width << "x" << height;
    EXPECT_EQ(decoded.code(), Errc::malformed);
  }
}

TEST(MediaObject, DecodeRejectsGarbage) {
  const serde::Bytes garbage = {0x00};
  EXPECT_FALSE(MediaObject::decode(garbage).ok());
}

// ----------------------------------------------------------- Transformers

class TransformTest : public ::testing::Test {
 protected:
  TransformerSuite suite_ = TransformerSuite::with_builtins();

  MediaObject image_object() {
    const Image image = render_scene(make_crisis_scene(64, 64, 1));
    ImageMedia media;
    media.width = 64;
    media.height = 64;
    media.channels = 1;
    media.description = "two buildings near the access road";
    media.encoded = encode_progressive(image);
    return MediaObject(std::move(media));
  }
};

TEST_F(TransformTest, IdentityIsNoop) {
  const MediaObject text(TextMedia{"hi"});
  auto result = suite_.transform(text, Modality::text);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().get_if<TextMedia>()->text, "hi");
}

TEST_F(TransformTest, ImageToSketchPreservesDescription) {
  auto result = suite_.transform(image_object(), Modality::sketch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().modality(), Modality::sketch);
  EXPECT_EQ(result.value().get_if<SketchMedia>()->sketch.description,
            "two buildings near the access road");
}

TEST_F(TransformTest, ImageToSketchPrefersEmbeddedBaseSketch) {
  const Image image = render_scene(make_crisis_scene(64, 64, 1));
  ImageMedia media;
  media.width = media.height = 64;
  media.channels = 1;
  media.description = "with embedded sketch";
  media.encoded = encode_progressive(image);
  SketchParams coarse;
  coarse.decimation = 16;  // distinctive: recomputation would differ
  media.sketch = extract_sketch(image, "with embedded sketch", coarse);
  auto result =
      suite_.transform(MediaObject(std::move(media)), Modality::sketch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().get_if<SketchMedia>()->sketch.width, 4);
}

TEST_F(TransformTest, ImageToTextCarriesDimensions) {
  auto result = suite_.transform(image_object(), Modality::text);
  ASSERT_TRUE(result.ok());
  const std::string& text = result.value().get_if<TextMedia>()->text;
  EXPECT_NE(text.find("64x64"), std::string::npos);
  EXPECT_NE(text.find("access road"), std::string::npos);
}

TEST_F(TransformTest, TextSpeechInverseRoundTrip) {
  const MediaObject text(TextMedia{"all units report"});
  auto speech = suite_.transform(text, Modality::speech);
  ASSERT_TRUE(speech.ok());
  auto back = suite_.transform(speech.value(), Modality::text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().get_if<TextMedia>()->text, "all units report");
}

TEST_F(TransformTest, ImageToSpeechIsMultiHop) {
  // image -> text -> speech via BFS path-finding.
  auto result = suite_.transform(image_object(), Modality::speech);
  ASSERT_TRUE(result.ok());
  const auto* speech = result.value().get_if<SpeechMedia>();
  ASSERT_NE(speech, nullptr);
  EXPECT_NE(speech->transcript.find("access road"), std::string::npos);
}

TEST_F(TransformTest, NoPathBackToImage) {
  const MediaObject text(TextMedia{"words"});
  auto result = suite_.transform(text, Modality::image);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), Errc::unsupported);
}

TEST_F(TransformTest, SpeechSizeTracksTextLength) {
  const SpeechMedia brief = synthesize_speech("ok");
  const SpeechMedia lengthy = synthesize_speech(std::string(2000, 'a'));
  EXPECT_LT(brief.samples.size(), lengthy.samples.size());
  EXPECT_GT(lengthy.duration_seconds, brief.duration_seconds);
}

TEST_F(TransformTest, RegistryIsExtensible) {
  // A custom transformer that upgrades text to a sketch-placeholder.
  class TextToSketch final : public Transformer {
   public:
    [[nodiscard]] Modality from() const noexcept override {
      return Modality::text;
    }
    [[nodiscard]] Modality to() const noexcept override {
      return Modality::sketch;
    }
    [[nodiscard]] Result<MediaObject> apply(
        const MediaObject& input) const override {
      Sketch sketch;
      sketch.width = sketch.height = 1;
      sketch.source_width = sketch.source_height = 1;
      BitWriter bits;
      bits.put_run(1);
      sketch.rle = bits.finish();
      sketch.description = input.get_if<TextMedia>()->text;
      return MediaObject(SketchMedia{std::move(sketch)});
    }
  };
  const std::size_t before = suite_.size();
  suite_.add(std::make_unique<TextToSketch>());
  EXPECT_EQ(suite_.size(), before + 1);
  auto result =
      suite_.transform(MediaObject(TextMedia{"note"}), Modality::sketch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().get_if<SketchMedia>()->sketch.description, "note");
}

}  // namespace
}  // namespace collabqos::media
