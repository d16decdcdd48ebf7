// Small statistics toolkit used by benches, RTCP receiver reports and the
// system-state monitors: exact percentiles over bounded samples, and
// exponentially-weighted moving averages.
#pragma once

#include <cstddef>
#include <vector>

namespace collabqos {

/// Stores all samples; offers exact quantiles. For bench-sized data sets.
class SampleSet {
 public:
  void add(double sample);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] double mean() const noexcept;
  /// Exact quantile by linear interpolation; q in [0,1]. An empty set
  /// yields 0.0 (not UB): bench/report code may probe before sampling.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Exponentially weighted moving average, the classic RTT/jitter estimator
/// shape (RFC 3550 uses alpha = 1/16 for jitter).
class Ewma {
 public:
  explicit Ewma(double alpha) noexcept : alpha_(alpha) {}

  void add(double sample) noexcept {
    value_ = seeded_ ? (1.0 - alpha_) * value_ + alpha_ * sample : sample;
    seeded_ = true;
  }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] bool seeded() const noexcept { return seeded_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace collabqos
