// The progressive codec's two kernel builds, for the tests that hold them
// against each other. Not part of the library's interface: programs call
// encode_progressive and decode_progressive_prefix, which run the BMI2
// build where codec_bmi2_available() and the portable build elsewhere.
// Both builds give the same bytes, images and verdicts.
#pragma once

#include <cstdint>
#include <span>

#include "collabqos/media/codec.hpp"

namespace collabqos::media {

/// Whether this CPU runs the BMI2 kernels: x86-64 with POPCNT, LZCNT,
/// BMI1 and BMI2, and not an AMD CPU before Zen 3, whose pdep is
/// microcoded.
[[nodiscard]] bool codec_bmi2_available() noexcept;

/// encode_progressive and decode_progressive_prefix on the portable
/// kernels, whatever the CPU.
[[nodiscard]] EncodedImage encode_progressive_portable(const Image& image,
                                                       CodecParams params);
[[nodiscard]] Result<Image> decode_progressive_prefix_portable(
    std::span<const std::uint8_t> header,
    std::span<const serde::Bytes> packets);

}  // namespace collabqos::media
