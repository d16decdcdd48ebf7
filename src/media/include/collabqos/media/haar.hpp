// Integer Haar (S-transform) wavelet pyramid. Perfectly reversible in
// integer arithmetic, which lets the progressive decoder reconstruct the
// exact image once every bit-plane has arrived.
#pragma once

#include <cstdint>
#include <vector>

namespace collabqos::media {

/// Coefficient plane for one channel: row-major int32, same dimensions as
/// the source, holding the multi-level transform in place (LL in the
/// top-left corner after `levels` applications).
struct CoefficientPlane {
  int width = 0;
  int height = 0;
  int levels = 0;
  std::vector<std::int32_t> data;

  [[nodiscard]] std::int32_t& at(int x, int y) {
    return data[static_cast<std::size_t>(y) * width + x];
  }
  [[nodiscard]] std::int32_t at(int x, int y) const {
    return data[static_cast<std::size_t>(y) * width + x];
  }
};

/// Forward multi-level transform of an 8-bit plane. `levels` halvings are
/// applied to the top-left quadrant chain; dimensions need not be powers
/// of two (odd extents keep the extra sample in the low band).
[[nodiscard]] CoefficientPlane forward_haar(const std::uint8_t* plane,
                                            int width, int height, int stride,
                                            int pixel_step, int levels);

/// In-place multi-level transform of arbitrary integer samples (the
/// colour-decorrelated planes of the codec). `plane.data` holds samples
/// on entry and coefficients on return.
void forward_haar_inplace(CoefficientPlane& plane);

/// In-place inverse to raw integer samples (no clamping — callers that
/// fed colour-difference planes need the signed values back). Sums wrap
/// modulo 2^32 instead of overflowing, so coefficients decoded from a
/// corrupt stream give garbage samples, never undefined behaviour.
void inverse_haar_inplace(CoefficientPlane& coefficients);

/// Inverse transform; output clamped to [0,255].
void inverse_haar(const CoefficientPlane& coefficients, std::uint8_t* plane,
                  int stride, int pixel_step);

/// A subband rectangle [x0, x1) x [y0, y1) of a coefficient plane.
struct SubbandRect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
};

/// The subband rectangles in progressive scan order: the coarsest LL
/// first, then HL, LH and HH per level from coarse to fine. Scanning each
/// rectangle row by row visits every coefficient once: that is the
/// progressive codec's subband scan order.
[[nodiscard]] std::vector<SubbandRect> subband_rects(int width, int height,
                                                     int levels);

}  // namespace collabqos::media
