// dB <-> linear conversions used by the wireless channel model and the
// base-station modality thresholds (the paper reasons in dB: "if the SIR
// threshold for image data is at 4 dB ... current target SIR is about 7 dB").
#pragma once

#include <cmath>

namespace collabqos {

/// Linear power ratio -> decibels. Requires ratio > 0.
[[nodiscard]] inline double to_db(double linear) noexcept {
  return 10.0 * std::log10(linear);
}

/// Decibels -> linear power ratio.
[[nodiscard]] inline double from_db(double db) noexcept {
  return std::pow(10.0, db / 10.0);
}

}  // namespace collabqos
