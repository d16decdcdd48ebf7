// Differential tests: the progressive codec and its bit I/O against the
// reference implementation in support/reference_codec.hpp, and the
// sketcher against the hypot oracle in support/legacy_sketch.hpp, on
// seeded random images, parameters and stream mutations. The golden
// corpus pins chosen scenes; these cases reach extents, depths and
// corruptions it does not list.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "collabqos/media/bitio.hpp"
#include "collabqos/media/codec.hpp"
#include "collabqos/media/image.hpp"
#include "collabqos/media/sketch.hpp"
#include "collabqos/serde/wire.hpp"
#include "collabqos/util/rng.hpp"
#include "media/codec_kernels.hpp"
#include "support/legacy_sketch.hpp"
#include "support/reference_codec.hpp"

namespace collabqos::media {
namespace {

int pick(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_int(lo, hi));
}

/// A random image of one of four kinds: noise (every plane busy), a
/// smooth gradient with light noise, sparse spikes on a flat field, or a
/// constant.
Image random_image(Rng& rng, int width, int height, int channels) {
  Image image(width, height, channels);
  const int kind = pick(rng, 0, 3);
  const auto flat = static_cast<std::uint8_t>(pick(rng, 0, 255));
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      for (int c = 0; c < channels; ++c) {
        int value = flat;
        switch (kind) {
          case 0:
            value = pick(rng, 0, 255);
            break;
          case 1:
            value = (x * 7 + y * 3 + c * 40) % 256 + pick(rng, -3, 3);
            break;
          case 2:
            value = rng.chance(0.05) ? pick(rng, 0, 255) : flat;
            break;
          default:
            break;
        }
        image.set(x, y, c, static_cast<std::uint8_t>(std::clamp(value, 0, 255)));
      }
    }
  }
  return image;
}

CodecParams random_params(Rng& rng) {
  CodecParams params;
  params.levels = pick(rng, 0, 12);
  params.max_packets = pick(rng, 1, 16);
  params.scan = rng.chance(0.5) ? CodecParams::Scan::subband
                                : CodecParams::Scan::raster;
  params.color_transform = rng.chance(0.5);
  return params;
}

std::string describe(int width, int height, int channels,
                     const CodecParams& p) {
  return std::to_string(width) + "x" + std::to_string(height) + "x" +
         std::to_string(channels) + " levels " + std::to_string(p.levels) +
         " max_packets " + std::to_string(p.max_packets) +
         (p.scan == CodecParams::Scan::raster ? " raster" : " subband") +
         (p.color_transform ? " ycocg" : "");
}

enum class Build { portable, bmi2 };

/// Every kernel build this CPU runs: the portable one always, the BMI2
/// one, which the public functions pick, where the CPU has it.
std::vector<Build> kernel_builds() {
  std::vector<Build> builds = {Build::portable};
  if (codec_bmi2_available()) builds.push_back(Build::bmi2);
  return builds;
}

const char* name(Build build) {
  return build == Build::bmi2 ? " [bmi2]" : " [portable]";
}

EncodedImage encode_on(Build build, const Image& image, CodecParams params) {
  return build == Build::bmi2 ? encode_progressive(image, params)
                              : encode_progressive_portable(image, params);
}

Result<Image> decode_on(Build build, std::span<const std::uint8_t> header,
                        std::span<const serde::Bytes> packets) {
  return build == Build::bmi2
             ? decode_progressive_prefix(header, packets)
             : decode_progressive_prefix_portable(header, packets);
}

/// Same verdict, and the same pixels when both decode, on every build.
void expect_same_decode(std::span<const std::uint8_t> header,
                        std::span<const serde::Bytes> packets,
                        const std::string& what) {
  const Result<Image> want = reference::decode_progressive_prefix(header, packets);
  for (const Build build : kernel_builds()) {
    const Result<Image> got = decode_on(build, header, packets);
    ASSERT_EQ(got.code(), want.code()) << what << name(build);
    if (!want) continue;
    ASSERT_EQ(got.value().width(), want.value().width()) << what;
    ASSERT_EQ(got.value().height(), want.value().height()) << what;
    ASSERT_EQ(got.value().channels(), want.value().channels()) << what;
    ASSERT_EQ(got.value().pixels(), want.value().pixels()) << what << name(build);
  }
}

TEST(CodecDiff, MatchesReferenceOnRandomImages) {
  Rng rng(2718);
  for (int round = 0; round < 120; ++round) {
    int width = pick(rng, 1, 80);
    int height = pick(rng, 1, 80);
    if (round % 10 == 0) width = 1;   // 1 x N
    if (round % 10 == 1) height = 1;  // N x 1
    const int channels = rng.chance(0.5) ? 1 : 3;
    const CodecParams params = random_params(rng);
    const std::string what = describe(width, height, channels, params);
    const Image image = random_image(rng, width, height, channels);

    const EncodedImage want = reference::encode_progressive(image, params);
    for (const Build build : kernel_builds()) {
      const EncodedImage got = encode_on(build, image, params);
      ASSERT_EQ(got.header, want.header) << what << name(build);
      ASSERT_EQ(got.packets, want.packets) << what << name(build);
    }

    // Every prefix, and every prefix with one interior packet missing.
    for (std::size_t count = 0; count <= want.packets.size(); ++count) {
      const std::span<const serde::Bytes> prefix(want.packets.data(), count);
      expect_same_decode(want.header, prefix, what + " prefix " +
                                                  std::to_string(count));
      if (count >= 2) {
        std::vector<serde::Bytes> gapped(prefix.begin(), prefix.end());
        gapped[static_cast<std::size_t>(pick(rng, 0, static_cast<int>(count) - 1))]
            .clear();
        expect_same_decode(want.header, gapped, what + " gapped prefix " +
                                                    std::to_string(count));
      }
    }
  }
}

TEST(CodecDiff, MatchesReferenceOnMutatedStreams) {
  Rng rng(31337);
  for (int round = 0; round < 60; ++round) {
    const int width = pick(rng, 1, 40);
    const int height = pick(rng, 1, 40);
    const int channels = rng.chance(0.5) ? 1 : 3;
    const CodecParams params = random_params(rng);
    const EncodedImage encoded = reference::encode_progressive(
        random_image(rng, width, height, channels), params);
    const std::string what = describe(width, height, channels, params);
    for (int trial = 0; trial < 40; ++trial) {
      serde::Bytes header = encoded.header;
      std::vector<serde::Bytes> packets = encoded.packets;
      const int mutations = pick(rng, 1, 3);
      for (int m = 0; m < mutations; ++m) {
        serde::Bytes& target =
            rng.chance(0.1) ? header
                            : packets[static_cast<std::size_t>(
                                  pick(rng, 0, static_cast<int>(packets.size()) - 1))];
        if (target.empty()) continue;
        const auto at = static_cast<std::size_t>(
            pick(rng, 0, static_cast<int>(target.size()) - 1));
        switch (pick(rng, 0, 3)) {
          case 0:  // flip one bit
            target[at] ^= static_cast<std::uint8_t>(1u << pick(rng, 0, 7));
            break;
          case 1:  // truncate
            target.resize(at);
            break;
          case 2:  // overwrite a byte
            target[at] = static_cast<std::uint8_t>(pick(rng, 0, 255));
            break;
          default:  // append garbage
            for (int extra = pick(rng, 1, 9); extra > 0; --extra) {
              target.push_back(static_cast<std::uint8_t>(pick(rng, 0, 255)));
            }
            break;
        }
      }
      const auto count = static_cast<std::size_t>(
          pick(rng, 0, static_cast<int>(packets.size())));
      expect_same_decode(header,
                         std::span<const serde::Bytes>(packets.data(), count),
                         what + " trial " + std::to_string(trial));
    }
  }
}

/// Encoded on every build as the reference encodes it, and every prefix
/// decoded as the reference decodes it.
void expect_same_codec(const Image& image, const CodecParams& params,
                       const std::string& what) {
  const EncodedImage want = reference::encode_progressive(image, params);
  for (const Build build : kernel_builds()) {
    const EncodedImage got = encode_on(build, image, params);
    ASSERT_EQ(got.header, want.header) << what << name(build);
    ASSERT_EQ(got.packets, want.packets) << what << name(build);
  }
  for (std::size_t count = 0; count <= want.packets.size(); ++count) {
    expect_same_decode(want.header,
                       std::span<const serde::Bytes>(want.packets.data(), count),
                       what + " prefix " + std::to_string(count));
  }
}

TEST(CodecDiff, MatchesReferenceOnFullSizeScenes) {
  // Noise and gradients at the imagery extent: dense late planes, whose
  // significance passes read many codes per table step.
  Rng rng(256);
  for (int kind = 0; kind < 4; ++kind) {
    Image image(256, 256, 1);
    for (int y = 0; y < 256; ++y) {
      for (int x = 0; x < 256; ++x) {
        const int value = kind % 2 == 0
                              ? pick(rng, 0, 255)
                              : (x * (kind + 1) + y * 3) % 256 + pick(rng, -2, 2);
        image.set(x, y, 0, static_cast<std::uint8_t>(std::clamp(value, 0, 255)));
      }
    }
    CodecParams params;
    params.max_packets = kind < 2 ? 16 : 64;
    expect_same_codec(image, params, "256x256 kind " + std::to_string(kind));
  }
}

TEST(CodecDiff, RunsAtAndPastTheTableReach) {
  // Raster scan, no levels: the coefficients are the pixels, so every
  // plane's significance pass has these runs between its bright pixels.
  // A table entry reaches runs of up to 62; 63 and 64 take the one-code
  // step.
  for (const int run : {30, 31, 62, 63, 64}) {
    for (const int before : {0, 1, 5, 11}) {
      std::vector<int> bright;
      int x = before;
      for (int i = 0; i < 4; ++i) {
        bright.push_back(x);
        x += run + 1;
      }
      Image image(x + 3, 1, 1);
      for (const int at : bright) image.set(at, 0, 0, 200);
      image.set(x + 1, 0, 0, 3);  // short runs right after a long one
      CodecParams params;
      params.levels = 0;
      params.scan = CodecParams::Scan::raster;
      params.max_packets = 32;
      expect_same_codec(image, params,
                        "run " + std::to_string(run) + " after " +
                            std::to_string(before));
    }
  }
}

TEST(CodecDiff, TableStepsThatExhaustThePass) {
  // Every position significant at the top plane: codes of run 0, six to a
  // table step, whose last step takes exactly the positions left (a
  // multiple of six) or stops short of them.
  for (int n = 1; n <= 26; ++n) {
    Image image(n, 1, 1);
    for (int x = 0; x < n; ++x) image.set(x, 0, 0, static_cast<std::uint8_t>(128 + x));
    CodecParams params;
    params.levels = 0;
    params.scan = CodecParams::Scan::raster;
    params.max_packets = 32;
    expect_same_codec(image, params, std::to_string(n) + " positions");
  }
}

TEST(CodecDiff, ExtentsOffWholeWords) {
  // Scans whose length is not a multiple of 64: the last bitmap word is
  // partial, and the magnitudes and signs run on past it.
  Rng rng(64);
  const std::tuple<int, int, int> extents[] = {{257, 3, 1}, {65, 65, 3}, {63, 1, 1}, {65, 1, 3}};
  for (const auto& [width, height, channels] : extents) {
    for (int kind = 0; kind < 2; ++kind) {
      Image image(width, height, channels);
      for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
          for (int c = 0; c < channels; ++c) {
            const int value = kind == 0 ? pick(rng, 0, 255) : (x + 2 * y + 40 * c) % 256;
            image.set(x, y, c, static_cast<std::uint8_t>(value));
          }
        }
      }
      CodecParams params;
      params.max_packets = 32;
      expect_same_codec(image, params,
                        describe(width, height, channels, params) + " kind " +
                            std::to_string(kind));
    }
  }
}

TEST(CodecDiff, TruncationAtEveryByteOfADenseSignificancePass) {
  // One pass to a packet. The largest significance pass of a noise image
  // is cut at every byte and framed again, so that the pass decoder, not
  // the framing, meets the end of its data.
  Rng rng(77);
  Image image(48, 48, 1);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 48; ++x) {
      image.set(x, y, 0, static_cast<std::uint8_t>(pick(rng, 0, 255)));
    }
  }
  CodecParams params;
  params.max_packets = 64;
  const EncodedImage encoded = reference::encode_progressive(image, params);
  const auto pass_of = [](const serde::Bytes& packet) {
    serde::Reader reader(packet);
    EXPECT_EQ(reader.varint(), 1u);
    return reader.blob();
  };
  // Significance passes are the even packets.
  std::size_t densest = 0;
  for (std::size_t i = 0; i < encoded.packets.size(); i += 2) {
    if (encoded.packets[i].size() > encoded.packets[densest].size()) densest = i;
  }
  const serde::Bytes pass = pass_of(encoded.packets[densest]);
  ASSERT_GT(pass.size(), 100u);
  for (std::size_t cut = 0; cut <= pass.size(); ++cut) {
    std::vector<serde::Bytes> packets(encoded.packets.begin(),
                                      encoded.packets.begin() +
                                          static_cast<std::ptrdiff_t>(densest) + 1);
    serde::Writer framed;
    framed.varint(1);
    framed.blob(std::span<const std::uint8_t>(pass.data(), cut));
    packets.back() = std::move(framed).take();
    expect_same_decode(encoded.header, packets, "cut at " + std::to_string(cut));
  }
}

TEST(SketchDiff, MatchesOracleOnRandomImages) {
  // Noise puts the threshold in a g2 bucket above 0, flat blocks with few
  // levels make large tie classes, and low-contrast ramps keep g2 small.
  Rng rng(1618);
  for (int round = 0; round < 60; ++round) {
    const int w = pick(rng, 1, 70);
    const int h = pick(rng, 1, 70);
    Image image(w, h, rng.chance(0.5) ? 1 : 3);
    const int kind = pick(rng, 0, 2);
    const int levels = pick(rng, 2, 5);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        for (int c = 0; c < image.channels(); ++c) {
          int v = 0;
          if (kind == 0) v = pick(rng, 0, 255);
          if (kind == 1) v = ((x / 5 + y / 3 + c) % levels) * (255 / levels);
          if (kind == 2) v = (x + 2 * y) % 8 + pick(rng, 0, 2);
          image.set(x, y, c, static_cast<std::uint8_t>(v));
        }
      }
    }
    SketchParams params;
    params.decimation = pick(rng, 1, 5);
    params.threshold_quantile = rng.uniform(0.0, 1.0);
    auto rendered = render_sketch(extract_sketch(image, "x", params));
    ASSERT_TRUE(rendered.ok());
    std::vector<std::uint8_t> edges = rendered.value().pixels();
    for (auto& e : edges) e = e != 0 ? 1 : 0;
    EXPECT_EQ(edges, legacy::sketch_edges(image, params))
        << w << "x" << h << "x" << image.channels() << " decimation "
        << params.decimation << " quantile " << params.threshold_quantile;
  }
}

/// One write operation of the round-trip test, applied to either writer.
/// A run_bit is a run and then one bit, read back by get_run_bit.
struct WriteOp {
  enum Kind { bit, bits, gamma, run_bit } kind;
  std::uint64_t value;
  int count;  // bits: width; run_bit: the bit
};

template <class Writer>
void write_all(Writer& w, const std::vector<WriteOp>& ops) {
  for (const WriteOp& op : ops) {
    switch (op.kind) {
      case WriteOp::bit:
        w.put(op.value != 0);
        break;
      case WriteOp::bits:
        w.put_bits(op.value, op.count);
        break;
      case WriteOp::gamma:
        w.put_gamma(op.value);
        break;
      case WriteOp::run_bit:
        w.put_run(op.value);
        w.put(op.count != 0);
        break;
    }
  }
}

/// `ops` through a BitSink over a buffer sized for their worst case: 16
/// bytes an op (a 127-bit gamma code and a bit), and the 8 bytes a put
/// stores at once.
std::vector<std::uint8_t> sink_all(const std::vector<WriteOp>& ops) {
  std::vector<std::uint8_t> bytes(16 * ops.size() + 8);
  BitSink sink(bytes.data());
  write_all(sink, ops);
  bytes.resize(sink.size());
  return bytes;
}

/// A random value of exactly `width` bits (width 1..64).
std::uint64_t value_of_width(Rng& rng, int width) {
  const std::uint64_t top = std::uint64_t{1} << (width - 1);
  return top | (rng() & (top - 1));
}

TEST(BitIo, RoundTripMatchesReference) {
  Rng rng(4242);
  for (int round = 0; round < 300; ++round) {
    std::vector<WriteOp> ops;
    for (int i = pick(rng, 0, 200); i > 0; --i) {
      switch (pick(rng, 0, 3)) {
        case 0:
          ops.push_back({WriteOp::bit, rng() & 1, 1});
          break;
        case 1: {
          const int count = pick(rng, 0, 64);
          ops.push_back({WriteOp::bits,
                         count == 0 ? 0 : value_of_width(rng, count) >> pick(rng, 0, count - 1),
                         count});
          break;
        }
        case 2:  // gamma codes up to 63 leading zeros
          ops.push_back({WriteOp::gamma, value_of_width(rng, pick(rng, 1, 64)), 0});
          break;
        default: {
          const std::uint64_t run =
              value_of_width(rng, pick(rng, 1, 63)) - 1 + pick(rng, 0, 1);
          ops.push_back({WriteOp::run_bit, run, pick(rng, 0, 1)});
          break;
        }
      }
    }
    const auto bytes = sink_all(ops);
    reference::BitWriter expected;
    write_all(expected, ops);
    ASSERT_EQ(bytes, expected.finish()) << "round " << round;

    // Read back in the written shapes, then past the end.
    BitReader got(bytes);
    reference::BitReader want(bytes);
    for (const WriteOp& op : ops) {
      switch (op.kind) {
        case WriteOp::bit:
          ASSERT_EQ(got.get(), want.get());
          break;
        case WriteOp::bits:
          if (op.count > 56) {
            ASSERT_EQ(got.get_bits(op.count - 32), want.get_bits(op.count - 32));
            ASSERT_EQ(got.get_bits(32), want.get_bits(32));
          } else {
            ASSERT_EQ(got.get_bits(op.count), want.get_bits(op.count));
          }
          break;
        case WriteOp::gamma:
          ASSERT_EQ(got.get_gamma(), want.get_gamma());
          break;
        case WriteOp::run_bit: {
          unsigned bit = 0;
          ASSERT_EQ(got.get_run_bit(bit), want.get_run());
          ASSERT_EQ(bit, want.get() ? 1u : 0u);
          break;
        }
      }
      ASSERT_EQ(got.ok(), want.ok());
      ASSERT_TRUE(got.ok()) << "round " << round;
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(got.get_bits(40), want.get_bits(40));
      ASSERT_EQ(got.ok(), want.ok());
    }
  }
}

TEST(BitIo, ReadsOfArbitraryBytesMatchReference) {
  // Zero-heavy bytes give over-long gamma codes (64 zeros or more) and
  // codes cut off by the end of the data.
  Rng rng(99);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(pick(rng, 0, 24)));
    for (auto& b : bytes) {
      b = rng.chance(0.7) ? 0 : static_cast<std::uint8_t>(1u << pick(rng, 0, 7));
    }
    BitReader got(bytes);
    reference::BitReader want(bytes);
    for (int step = 0; step < 12; ++step) {
      switch (pick(rng, 0, 2)) {
        case 0:
          ASSERT_EQ(got.get_gamma(), want.get_gamma()) << "round " << round;
          break;
        case 1: {
          const int count = pick(rng, 0, 56);
          ASSERT_EQ(got.get_bits(count), want.get_bits(count)) << "round " << round;
          break;
        }
        default: {
          // get_run_bit is get_run then get(), except that a bit missing
          // after a run reads as 2 and leaves the reader ok.
          unsigned bit = 0;
          const std::uint64_t run = got.get_run_bit(bit);
          ASSERT_EQ(run, want.get_run()) << "round " << round;
          if (!want.ok()) {
            ASSERT_FALSE(got.ok());
            break;
          }
          const bool value = want.get();
          if (want.ok()) {
            ASSERT_EQ(bit, value ? 1u : 0u) << "round " << round;
          } else {
            ASSERT_EQ(bit, 2u) << "round " << round;
            ASSERT_TRUE(got.ok());
            (void)got.get();  // fail it the way the reference failed
          }
          break;
        }
      }
      ASSERT_EQ(got.ok(), want.ok()) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace collabqos::media
