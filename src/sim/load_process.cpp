#include "collabqos/sim/load_process.hpp"

namespace collabqos::sim {

double RampProcess::sample(TimePoint t) {
  if (t <= start_ || length_.as_micros() <= 0) return from_;
  const TimePoint end = start_ + length_;
  if (t >= end) return to_;
  const double frac = (t - start_).as_seconds() / length_.as_seconds();
  return from_ + (to_ - from_) * frac;
}

}  // namespace collabqos::sim
