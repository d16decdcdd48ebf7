// Progressive hierarchical image codec (after the embedded-zerotree idea
// of Shapiro [23] that the paper's transformer builds on [12]). The
// encoder emits an ordered sequence of PACKETS; any prefix decodes to an
// image, and quality improves monotonically with every extra packet —
// this is exactly the knob the paper's inference engine turns ("the
// resolution threshold is used to determine the number of image segments
// (i.e. the number of image packets) to be received").
//
// Scheme: integer Haar pyramid, coefficients scanned coarse-to-fine,
// coded by bit-plane. Each plane contributes two passes — a significance
// pass (run-length-coded positions of newly significant coefficients plus
// signs) and a refinement pass (one raw bit per already-significant
// coefficient). With 8-bit input the magnitude fits 8 planes, giving 16
// natural packets; receiving all of them reconstructs the image
// losslessly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "collabqos/media/image.hpp"
#include "collabqos/serde/wire.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::media {

/// Encoder output: a self-describing header plus ordered packets.
struct EncodedImage {
  serde::Bytes header;
  std::vector<serde::Bytes> packets;

  [[nodiscard]] std::size_t total_bytes() const noexcept {
    std::size_t total = header.size();
    for (const auto& p : packets) total += p.size();
    return total;
  }
  /// Bytes of header plus the first `packet_count` packets.
  [[nodiscard]] std::size_t prefix_bytes(std::size_t packet_count) const;
};

struct CodecParams {
  int levels = 5;        ///< wavelet decomposition depth
  int max_packets = 16;  ///< cap on emitted packets (pairs of passes)
  /// Coefficient scan order. Subband (coarse-to-fine) is the paper's
  /// hierarchical behaviour; raster exists for the ablation bench, which
  /// shows why the hierarchy matters for progressive quality.
  enum class Scan : std::uint8_t { subband = 0, raster = 1 };
  Scan scan = Scan::subband;
  /// Reversible YCoCg-R decorrelation for 3-channel images (lossless;
  /// improves colour compression). Ignored for grayscale.
  bool color_transform = true;
};

/// Encode `image`. Always emits at least 1 packet; at most
/// `params.max_packets` (the natural count is 2 passes x bit-planes,
/// merged pairwise when the cap is lower).
[[nodiscard]] EncodedImage encode_progressive(const Image& image,
                                              CodecParams params = {});

/// Decode the header plus the first `packet_count` packets (0 yields an
/// all-black image: every coefficient is still 0). Errors on corrupt
/// streams, never UB.
[[nodiscard]] Result<Image> decode_progressive(
    const EncodedImage& encoded, std::size_t packet_count);

/// Decode from raw header/packet spans (the network path, where packets
/// arrive as RTP fragments and some may be missing: a missing interior
/// packet terminates the usable prefix).
[[nodiscard]] Result<Image> decode_progressive_prefix(
    std::span<const std::uint8_t> header,
    std::span<const serde::Bytes> packets);

}  // namespace collabqos::media
