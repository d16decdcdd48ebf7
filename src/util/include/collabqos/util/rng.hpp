// Deterministic pseudo-random source (xoshiro256++). Every stochastic
// component in the simulator takes an explicit Rng so experiments are
// reproducible bit-for-bit from a seed; there is no hidden global state.
#pragma once

#include <cstdint>
#include <limits>

namespace collabqos {

/// xoshiro256++ by Blackman & Vigna; seeded via SplitMix64 so that any
/// 64-bit seed (including 0) yields a well-mixed state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;
  /// Standard normal via Box-Muller (cached pair).
  double normal() noexcept;
  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

 private:
  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace collabqos
