// Progressive codec properties: any prefix decodes, quality is monotone,
// the full stream is lossless, and corrupt streams fail cleanly.
#include <gtest/gtest.h>

#include <cmath>

#include "collabqos/media/bitio.hpp"
#include "collabqos/media/codec.hpp"
#include "collabqos/media/image.hpp"
#include "collabqos/media/quality.hpp"

namespace collabqos::media {
namespace {

Image test_image(int width = 128, int height = 128, int channels = 1) {
  return render_scene(make_crisis_scene(width, height, channels));
}

TEST(Codec, FullDecodeIsLossless) {
  const Image image = test_image();
  const EncodedImage encoded = encode_progressive(image);
  auto decoded = decode_progressive(encoded, encoded.packets.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().pixels(), image.pixels());
}

TEST(Codec, ColorFullDecodeIsLossless) {
  const Image image = test_image(64, 64, 3);
  const EncodedImage encoded = encode_progressive(image);
  auto decoded = decode_progressive(encoded, encoded.packets.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().pixels(), image.pixels());
}

TEST(Codec, OddDimensionsLossless) {
  const Image image = test_image(101, 67, 1);
  const EncodedImage encoded = encode_progressive(image);
  auto decoded = decode_progressive(encoded, encoded.packets.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().pixels(), image.pixels());
}

TEST(Codec, SixteenPacketsForEightBitContent) {
  const EncodedImage encoded = encode_progressive(test_image());
  EXPECT_EQ(encoded.packets.size(), 16u);  // 8 planes x 2 passes
}

TEST(Codec, EveryPrefixDecodes) {
  const Image image = test_image(64, 64, 1);
  const EncodedImage encoded = encode_progressive(image);
  for (std::size_t k = 0; k <= encoded.packets.size(); ++k) {
    auto decoded = decode_progressive(encoded, k);
    ASSERT_TRUE(decoded.ok()) << "prefix " << k;
    EXPECT_EQ(decoded.value().width(), image.width());
    EXPECT_EQ(decoded.value().height(), image.height());
  }
}

TEST(Codec, PsnrIsMonotoneInPackets) {
  const Image image = test_image();
  const EncodedImage encoded = encode_progressive(image);
  // The decoder's mid-rise estimate for unrefined coefficients can cost
  // a fraction of a dB at an individual refinement pass, so monotonicity
  // is asserted with a 0.25 dB slack per step plus strict improvement
  // over every 2-packet (full plane) stride.
  std::vector<double> quality;
  for (std::size_t k = 1; k <= encoded.packets.size(); ++k) {
    const Image decoded = decode_progressive(encoded, k).take();
    quality.push_back(psnr(image, decoded));
  }
  for (std::size_t k = 1; k < quality.size(); ++k) {
    EXPECT_GE(quality[k], quality[k - 1] - 0.25) << "prefix " << k + 1;
  }
  for (std::size_t k = 2; k < quality.size(); ++k) {
    EXPECT_GT(quality[k], quality[k - 2]) << "stride at " << k + 1;
  }
  EXPECT_TRUE(std::isinf(quality.back()));  // last prefix is lossless
}

TEST(Codec, PrefixBytesStrictlyIncrease) {
  const EncodedImage encoded = encode_progressive(test_image());
  for (std::size_t k = 1; k <= encoded.packets.size(); ++k) {
    EXPECT_GT(encoded.prefix_bytes(k), encoded.prefix_bytes(k - 1));
  }
  EXPECT_EQ(encoded.prefix_bytes(encoded.packets.size()),
            encoded.total_bytes());
  EXPECT_EQ(encoded.prefix_bytes(999), encoded.total_bytes());  // clamped
}

TEST(Codec, CompresssBelowRaw) {
  const Image image = test_image(256, 256, 1);
  const EncodedImage encoded = encode_progressive(image);
  EXPECT_LT(encoded.total_bytes(), image.raw_bytes());
}

TEST(Codec, EarlyPacketsAreTiny) {
  const Image image = test_image(256, 256, 1);
  const EncodedImage encoded = encode_progressive(image);
  // First quarter of packets carries under 5% of the bytes: the
  // geometric growth the QoS ladder exploits.
  const std::size_t quarter = encoded.packets.size() / 4;
  EXPECT_LT(encoded.prefix_bytes(quarter) * 20, encoded.total_bytes());
}

class PacketCap : public ::testing::TestWithParam<int> {};

TEST_P(PacketCap, CapIsHonoredAndStillLossless) {
  const Image image = test_image(64, 64, 1);
  CodecParams params;
  params.max_packets = GetParam();
  const EncodedImage encoded = encode_progressive(image, params);
  EXPECT_LE(encoded.packets.size(),
            static_cast<std::size_t>(GetParam()));
  EXPECT_GE(encoded.packets.size(), 1u);
  auto decoded = decode_progressive(encoded, encoded.packets.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().pixels(), image.pixels());
}

INSTANTIATE_TEST_SUITE_P(Caps, PacketCap,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32));

class LevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(LevelSweep, LosslessAtEveryDepth) {
  const Image image = test_image(96, 96, 1);
  CodecParams params;
  params.levels = GetParam();
  const EncodedImage encoded = encode_progressive(image, params);
  auto decoded = decode_progressive(encoded, encoded.packets.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().pixels(), image.pixels());
}

INSTANTIATE_TEST_SUITE_P(Depths, LevelSweep, ::testing::Values(0, 1, 2, 5, 8));

TEST(Codec, ZeroPacketsGivesHeaderOnlyEstimate) {
  const Image image = test_image(32, 32, 1);
  const EncodedImage encoded = encode_progressive(image);
  auto decoded = decode_progressive(encoded, 0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().width(), 32);
  // With no coefficients everything reconstructs to a flat zero plane.
  for (const auto p : decoded.value().pixels()) EXPECT_EQ(p, 0);
}

TEST(Codec, ConstantImageCompressesExtremely) {
  Image flat(64, 64, 1);
  for (auto& p : flat.pixels()) p = 77;
  const EncodedImage encoded = encode_progressive(flat);
  EXPECT_LT(encoded.total_bytes(), flat.raw_bytes() / 50);
  auto decoded = decode_progressive(encoded, encoded.packets.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().pixels(), flat.pixels());
}

TEST(Codec, AllBlackImage) {
  Image black(16, 16, 1);
  const EncodedImage encoded = encode_progressive(black);
  ASSERT_GE(encoded.packets.size(), 1u);
  auto decoded = decode_progressive(encoded, encoded.packets.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().pixels(), black.pixels());
}

TEST(Codec, OnePixelImage) {
  Image dot(1, 1, 1);
  dot.set(0, 0, 0, 200);
  const EncodedImage encoded = encode_progressive(dot);
  auto decoded = decode_progressive(encoded, encoded.packets.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().at(0, 0, 0), 200);
}

TEST(Codec, MissingInteriorPacketTruncatesPrefix) {
  const Image image = test_image(64, 64, 1);
  const EncodedImage encoded = encode_progressive(image);
  // Simulate RTP loss: packet 3 missing (empty) in the delivered set.
  std::vector<serde::Bytes> delivered = encoded.packets;
  delivered[3].clear();
  auto partial = decode_progressive_prefix(encoded.header, delivered);
  ASSERT_TRUE(partial.ok());
  // Equivalent to decoding the 3-packet prefix.
  const Image expected = decode_progressive(encoded, 3).take();
  EXPECT_EQ(partial.value().pixels(), expected.pixels());
}

TEST(Codec, CorruptHeaderRejected) {
  const serde::Bytes garbage = {1, 2, 3};
  EXPECT_FALSE(decode_progressive_prefix(garbage, {}).ok());
}

TEST(Codec, CorruptPacketRejectedNotCrash) {
  const Image image = test_image(32, 32, 1);
  EncodedImage encoded = encode_progressive(image);
  // Truncate a packet mid-pass.
  encoded.packets[5].resize(encoded.packets[5].size() / 2);
  auto result = decode_progressive(encoded, encoded.packets.size());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), Errc::malformed);
}

TEST(Codec, HeaderDimensionLimits) {
  serde::Writer w;
  w.u8(0xC1);
  w.varint(1u << 20);  // implausible width
  w.varint(10);
  w.u8(1);
  w.u8(5);
  w.u8(7);
  w.varint(16);
  EXPECT_FALSE(decode_progressive_prefix(w.bytes(), {}).ok());
}

/// A progressive header (10 bytes at 4096x4096) with no packets.
serde::Bytes header_of(std::uint64_t width, std::uint64_t height,
                       int channels, int top_plane = 7) {
  serde::Writer w;
  w.u8(0xC1);
  w.varint(width);
  w.varint(height);
  w.u8(static_cast<std::uint8_t>(channels));
  w.u8(5);
  w.u8(static_cast<std::uint8_t>(top_plane));
  w.varint(16);
  w.u8(0);
  return std::move(w).take();
}

TEST(Codec, OversizedHeaderRejectedBeforeAnyWork) {
  // 4096x4096x3 used to decode "ok" after seconds of work on zeros.
  const serde::Bytes header = header_of(4096, 4096, 3);
  EXPECT_EQ(header.size(), 10u);
  auto result = decode_progressive_prefix(header, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), Errc::malformed);
}

TEST(Codec, MaximalHeaderRejectedWithoutThrowing) {
  // 65536x65536 used to escape the Result API as std::bad_alloc.
  Result<Image> result = Error{Errc::internal, "not run"};
  EXPECT_NO_THROW(result = decode_progressive_prefix(
                      header_of(65536, 65536, 3), {}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), Errc::malformed);
}

TEST(Codec, WrappingSignificanceRunRejected) {
  // Two newly significant coefficients, then a run of 2^64 - 2: the
  // position would wrap to 0, and the sign and closing run after it
  // would make the pass decode silently.
  // 145 bits, and the 8 bytes a put stores at once.
  std::vector<std::uint8_t> bits(32);
  BitSink sink(bits.data());
  sink.put_run(0);
  sink.put(false);
  sink.put_run(0);
  sink.put(false);
  sink.put_gamma(~std::uint64_t{0});
  sink.put(false);
  sink.put_run(100);
  bits.resize(sink.size());
  serde::Writer packet;
  packet.varint(1);
  packet.blob(bits);
  const std::vector<serde::Bytes> packets = {std::move(packet).take()};
  auto result = decode_progressive_prefix(header_of(8, 8, 1, 0), packets);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), Errc::malformed);
}

TEST(Codec, YCoCgColorTransformIsLossless) {
  const Image image = test_image(96, 96, 3);
  CodecParams params;
  params.color_transform = true;
  const EncodedImage encoded = encode_progressive(image, params);
  auto decoded = decode_progressive(encoded, encoded.packets.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().pixels(), image.pixels());
}

TEST(Codec, YCoCgShrinksColorStreams) {
  const Image image = test_image(256, 256, 3);
  CodecParams with;
  with.color_transform = true;
  CodecParams without;
  without.color_transform = false;
  const std::size_t bytes_with =
      encode_progressive(image, with).total_bytes();
  const std::size_t bytes_without =
      encode_progressive(image, without).total_bytes();
  EXPECT_LT(bytes_with, bytes_without);
}

TEST(Codec, RasterScanStillLossless) {
  const Image image = test_image(64, 64, 1);
  CodecParams params;
  params.scan = CodecParams::Scan::raster;
  const EncodedImage encoded = encode_progressive(image, params);
  auto decoded = decode_progressive(encoded, encoded.packets.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().pixels(), image.pixels());
}

TEST(Codec, SubbandScanNeverCostsMoreBytesThanRaster) {
  // Bit-plane significance coding reconstructs identically at equal
  // packet counts regardless of scan; the hierarchy's benefit is byte
  // size (significance runs cluster by subband). Assert both halves:
  // identical reconstruction, no byte regression.
  const Image image = test_image(128, 128, 1);
  CodecParams subband;
  CodecParams raster;
  raster.scan = CodecParams::Scan::raster;
  const EncodedImage a = encode_progressive(image, subband);
  const EncodedImage b = encode_progressive(image, raster);
  for (const std::size_t k : {4u, 8u, 16u}) {
    EXPECT_DOUBLE_EQ(psnr(image, decode_progressive(a, k).take()),
                     psnr(image, decode_progressive(b, k).take()));
  }
  EXPECT_LE(a.total_bytes(), b.total_bytes());
}

TEST(Codec, ReportedRangesMatchPaperShape) {
  // The Figure 6 sanity envelope: with 16 packets the BPP sits in the
  // low single digits and the one-packet prefix compresses by >50x.
  const Image image = test_image(512, 512, 1);
  const EncodedImage encoded = encode_progressive(image);
  const double bpp_full = bits_per_pixel(
      encoded.prefix_bytes(encoded.packets.size()), image.pixel_count());
  const double cr_one =
      compression_ratio(image.raw_bytes(), encoded.prefix_bytes(1));
  EXPECT_GT(bpp_full, 1.0);
  EXPECT_LT(bpp_full, 6.0);
  EXPECT_GT(cr_one, 50.0);
}

}  // namespace
}  // namespace collabqos::media
