// Integer Haar (S-transform) wavelet pyramid. Perfectly reversible in
// integer arithmetic, which lets the progressive decoder reconstruct the
// exact image once every bit-plane has arrived.
#pragma once

#include <cstdint>
#include <vector>

namespace collabqos::media {

/// In-place multi-level transform of arbitrary integer samples (the
/// colour-decorrelated planes of the codec): `data` is a row-major
/// `width` x `height` plane holding samples on entry and coefficients on
/// return, the LL band in the top-left corner. `levels` halvings are
/// applied to the top-left quadrant chain; dimensions need not be powers
/// of two (odd extents keep the extra sample in the low band). `scratch`
/// holds at least width * height values; every level reuses it.
void forward_haar_inplace(std::int32_t* data, int width, int height,
                          int levels, std::int32_t* scratch);

/// In-place inverse to raw integer samples (no clamping — callers that
/// fed colour-difference planes need the signed values back). Sums wrap
/// modulo 2^32 instead of overflowing, so coefficients decoded from a
/// corrupt stream give garbage samples, never undefined behaviour.
/// `scratch` as for forward_haar_inplace.
void inverse_haar_inplace(std::int32_t* data, int width, int height,
                          int levels, std::int32_t* scratch);

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
