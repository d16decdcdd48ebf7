#include "collabqos/util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace collabqos {

void SampleSet::add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

double SampleSet::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double SampleSet::quantile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  // An empty set has no order statistics; returning 0.0 keeps NDEBUG
  // builds defined instead of indexing past the end.
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (samples_.size() == 1) return samples_.front();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

}  // namespace collabqos
