// Golden corpus for the progressive codec and the sketcher. Every stream,
// packet, decoded prefix, sketch and corrupt-input verdict below is pinned
// in tests/golden/codec.json, so a rewrite of the codec must reproduce the
// recorded bytes exactly.
//
//   codec_golden_test                    compare against the corpus
//   codec_golden_test --record <path>    rewrite the corpus
//
// Re-recording changes the behavioural contract: say why in CHANGES.md.
//
// The corpus is one JSON object with one entry per line. The test rebuilds
// the lines of each group and compares them with the recorded ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "collabqos/media/codec.hpp"
#include "collabqos/media/image.hpp"
#include "collabqos/media/sketch.hpp"
#include "collabqos/util/rng.hpp"
#include "support/golden_corpus.hpp"

namespace collabqos::media {
namespace {

using golden::chunked;
using golden::crc;
using golden::entry;
using golden::hex;
using golden::Line;
using golden::quoted_list;

std::string digest(const Image& image) {
  return std::to_string(image.width()) + "x" + std::to_string(image.height()) +
         "x" + std::to_string(image.channels()) + ":" + crc(image.pixels());
}

std::string verdict(const Result<Image>& result) {
  if (!result) return std::string(to_string(result.code()));
  return "ok:" + digest(result.value());
}

struct NamedImage {
  const char* name;
  Image image;
};

/// The scenes the benches and perfbench share: perfbench's 256x256
/// session scene (seed 1), its colour twin, and the fig6 (gray) and fig7
/// (colour) 512x512 scenes.
NamedImage scene(int which) {
  switch (which) {
    case 0:
      return {"perfbench256", render_scene(make_crisis_scene(256, 256, 1), 1)};
    case 1:
      return {"perfbench256c", render_scene(make_crisis_scene(256, 256, 3), 1)};
    case 2:
      return {"fig6", render_scene(make_crisis_scene(512, 512, 1))};
    default:
      return {"fig7", render_scene(make_crisis_scene(512, 512, 3))};
  }
}
constexpr int kScenes = 4;

std::string stream_key(const char* name, const Image& image,
                       const CodecParams& p) {
  return std::string("stream ") + name + " c" +
         std::to_string(image.channels()) +
         (p.scan == CodecParams::Scan::raster ? " raster" : " subband") +
         " l" + std::to_string(p.levels) + " p" +
         std::to_string(p.max_packets);
}

/// Header hex, per-packet CRC and length, and the decoded image at every
/// prefix, for each scan x levels x packet-cap combination.
std::vector<Line> stream_lines(const NamedImage& s) {
  std::vector<Line> lines;
  for (const auto scan : {CodecParams::Scan::subband, CodecParams::Scan::raster}) {
    for (const int levels : {1, 5}) {
      for (const int max_packets : {4, 16}) {
        CodecParams p;
        p.scan = scan;
        p.levels = levels;
        p.max_packets = max_packets;
        const EncodedImage e = encode_progressive(s.image, p);
        std::vector<std::string> packets;
        for (const auto& packet : e.packets) {
          packets.push_back(crc(packet) + ":" + std::to_string(packet.size()));
        }
        std::vector<std::string> prefixes;
        for (std::size_t k = 0; k <= e.packets.size(); ++k) {
          prefixes.push_back(verdict(decode_progressive(e, k)));
        }
        lines.push_back(entry(stream_key(s.name, s.image, p),
                              "{\"header\": \"" + hex(e.header) +
                                  "\", \"packets\": " + quoted_list(packets) +
                                  ", \"prefix\": " + quoted_list(prefixes) +
                                  "}"));
      }
    }
  }
  return lines;
}

/// Sketch RLE bytes (as hex up to 1 KiB, else as CRC and length) and the
/// rendered digest, at the default parameters and at full resolution with
/// a median threshold.
std::vector<Line> sketch_lines(const NamedImage& s) {
  std::vector<Line> lines;
  SketchParams fine;
  fine.decimation = 1;
  fine.threshold_quantile = 0.5;
  for (const auto& [label, params] :
       {std::pair{"default", SketchParams{}}, std::pair{"d1 q0.5", fine}}) {
    const Sketch sketch = extract_sketch(s.image, "scene", params);
    lines.push_back(entry(
        std::string("sketch ") + s.name + " " + label,
        (sketch.rle.size() <= 1024
             ? "{\"rle\": \"" + hex(sketch.rle)
             : "{\"rle_crc\": \"" + crc(sketch.rle) + ":" +
                   std::to_string(sketch.rle.size())) +
            "\", \"render\": \"" +
            verdict(render_sketch(sketch)) + "\"}"));
  }
  return lines;
}

/// Full hex of one small stream, so a reader can see the wire format.
std::vector<Line> small_stream_lines() {
  const Image image = render_scene(make_crisis_scene(16, 16, 1), 1);
  const EncodedImage e = encode_progressive(image);
  std::vector<std::string> packets;
  for (const auto& packet : e.packets) packets.push_back(hex(packet));
  return {entry("hex16 c1 subband l5 p16",
                "{\"header\": \"" + hex(e.header) +
                    "\", \"packets\": " + quoted_list(packets) + "}")};
}

/// Odd and degenerate extents, where the Haar levels keep a tail sample
/// in the low band and the scan rectangles are uneven: the decoded image
/// at every prefix.
std::vector<Line> odd_extent_lines() {
  std::vector<Line> lines;
  for (const auto& [w, h] : {std::pair{1, 1}, std::pair{1, 7}, std::pair{7, 1},
                             std::pair{17, 13}, std::pair{33, 5}}) {
    for (const int channels : {1, 3}) {
      const Image image =
          render_scene(make_crisis_scene(w, h, channels), 1);
      for (const int levels : {0, 2, 8}) {
        CodecParams p;
        p.levels = levels;
        const EncodedImage e = encode_progressive(image, p);
        std::vector<std::string> prefixes;
        for (std::size_t k = 0; k <= e.packets.size(); ++k) {
          prefixes.push_back(verdict(decode_progressive(e, k)));
        }
        lines.push_back(entry(
            "odd " + std::to_string(w) + "x" + std::to_string(h) + " c" +
                std::to_string(channels) + " l" + std::to_string(levels),
            "{\"stream\": \"" + hex(e.header) + ":" +
                crc([&] {
                  serde::Bytes all;
                  for (const auto& packet : e.packets) {
                    all.insert(all.end(), packet.begin(), packet.end());
                  }
                  return all;
                }()) +
                "\", \"prefix\": " + quoted_list(prefixes) + "}"));
      }
    }
  }
  return lines;
}

/// Decode verdicts of seeded single-byte mutations and truncations of a
/// stream: every corrupt input must fail, or decode to, the same result.
std::vector<std::string> mutation_verdicts(const EncodedImage& e,
                                           std::uint64_t seed) {
  // Part 0 is the header, part j + 1 is packet j.
  std::vector<serde::Bytes> parts;
  parts.push_back(e.header);
  for (const auto& packet : e.packets) parts.push_back(packet);
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  const auto decode = [](const std::vector<serde::Bytes>& p) {
    return decode_progressive_prefix(
        p[0], std::span<const serde::Bytes>(p.data() + 1, p.size() - 1));
  };

  Rng rng(seed);
  std::vector<std::string> verdicts;
  for (int k = 0; k < 256; ++k) {
    std::vector<serde::Bytes> mutated = parts;
    auto offset = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
    std::size_t part = 0;
    while (offset >= mutated[part].size()) offset -= mutated[part++].size();
    mutated[part][offset] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    verdicts.push_back(verdict(decode(mutated)));
  }
  for (int k = 0; k < 64; ++k) {
    std::vector<serde::Bytes> truncated = parts;
    const auto part = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(parts.size()) - 1));
    truncated[part].resize(static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(truncated[part].size()) - 1)));
    verdicts.push_back(verdict(decode(truncated)));
  }
  return verdicts;
}

/// The same for an encoded sketch, through Sketch::decode and render.
std::vector<std::string> sketch_mutation_verdicts(const serde::Bytes& bytes,
                                                  std::uint64_t seed) {
  const auto decode = [](const serde::Bytes& b) -> Result<Image> {
    auto sketch = Sketch::decode(b);
    if (!sketch) return sketch.error();
    return render_sketch(sketch.value());
  };
  Rng rng(seed);
  std::vector<std::string> verdicts;
  for (int k = 0; k < 128; ++k) {
    serde::Bytes mutated = bytes;
    mutated[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(bytes.size()) - 1))] ^=
        static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    verdicts.push_back(verdict(decode(mutated)));
  }
  for (int k = 0; k < 32; ++k) {
    serde::Bytes truncated = bytes;
    truncated.resize(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1)));
    verdicts.push_back(verdict(decode(truncated)));
  }
  return verdicts;
}

std::vector<Line> mutation_lines() {
  std::vector<Line> lines;
  const Image gray = render_scene(make_crisis_scene(32, 32, 1), 1);
  chunked(lines, "mutations gray32", mutation_verdicts(encode_progressive(gray), 11));
  CodecParams p;
  p.levels = 3;
  p.max_packets = 8;
  p.scan = CodecParams::Scan::raster;
  const Image color = render_scene(make_crisis_scene(24, 20, 3), 1);
  chunked(lines, "mutations color24x20 raster l3 p8",
          mutation_verdicts(encode_progressive(color, p), 12));
  const Image sketched = render_scene(make_crisis_scene(64, 64, 1), 1);
  chunked(lines, "sketch-mutations scene64",
          sketch_mutation_verdicts(extract_sketch(sketched, "scene").encode(), 13));
  return lines;
}

/// Corpus groups, in file order. Each is checked by its own test.
std::vector<Line> group(int index) {
  if (index < kScenes) {
    const NamedImage s = scene(index);
    std::vector<Line> lines = stream_lines(s);
    for (Line& line : sketch_lines(s)) lines.push_back(std::move(line));
    return lines;
  }
  if (index == kScenes) return small_stream_lines();
  if (index == kScenes + 1) return odd_extent_lines();
  return mutation_lines();
}
constexpr int kGroups = kScenes + 3;

std::string render_corpus() {
  std::string out = "{\n\"format\": \"collabqos codec golden v1\"";
  for (int g = 0; g < kGroups; ++g) {
    for (const Line& line : group(g)) out += ",\n" + line;
  }
  return out + "\n}\n";
}

std::vector<std::pair<std::string, std::string>> recorded_lines() {
  return golden::recorded_lines(COLLABQOS_GOLDEN_DIR "/codec.json");
}

void expect_group_matches(int index) {
  const auto recorded = recorded_lines();
  ASSERT_FALSE(recorded.empty()) << "missing " COLLABQOS_GOLDEN_DIR "/codec.json";
  const std::vector<Line> lines = group(index);
  for (const Line& line : lines) {
    const std::string key = line.substr(1, line.find('"', 1) - 1);
    const auto it = std::find_if(recorded.begin(), recorded.end(),
                                 [&](const auto& r) { return r.first == key; });
    ASSERT_NE(it, recorded.end()) << "no recorded entry for " << key;
    EXPECT_EQ(line, it->second) << "entry " << key << " changed";
  }
}

TEST(CodecGolden, PerfbenchSceneGray) { expect_group_matches(0); }
TEST(CodecGolden, PerfbenchSceneColour) { expect_group_matches(1); }
TEST(CodecGolden, Fig6Scene) { expect_group_matches(2); }
TEST(CodecGolden, Fig7Scene) { expect_group_matches(3); }
TEST(CodecGolden, SmallStreamHex) { expect_group_matches(4); }
TEST(CodecGolden, OddExtents) { expect_group_matches(5); }
TEST(CodecGolden, CorruptInputVerdicts) { expect_group_matches(6); }

TEST(CodecGolden, CorpusHasNoStaleEntries) {
  // The format line; per scene 8 streams and 2 sketches; the hex stream;
  // 5 x 2 x 3 odd extents; (256 + 64) verdicts for each of two streams
  // and (128 + 32) for the sketch, 16 to a line.
  const std::size_t expected =
      1 + kScenes * 10 + 1 + 30 + (2 * 320 + 160) / 16;
  const auto recorded = recorded_lines();
  EXPECT_EQ(recorded.size(), expected);
  std::vector<std::string> keys;
  for (const auto& r : recorded) keys.push_back(r.first);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

}  // namespace
}  // namespace collabqos::media

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--record") {
    std::ofstream out(argv[2], std::ios::binary);
    out << collabqos::media::render_corpus();
    return out.good() ? 0 : 1;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
