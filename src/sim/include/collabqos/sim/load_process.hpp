// Scalar load processes: time-varying signals driving the simulated hosts'
// CPU load and page-fault counters. The paper's experiments sweep these
// "SNMP parameters" from 30 to 100; the processes here produce those sweeps.
#pragma once

#include "collabqos/sim/time.hpp"

namespace collabqos::sim {

/// A scalar signal sampled against virtual time.
class LoadProcess {
 public:
  virtual ~LoadProcess() = default;
  /// Value at time `t`.
  [[nodiscard]] virtual double sample(TimePoint t) = 0;
};

/// Constant value.
class ConstantProcess final : public LoadProcess {
 public:
  explicit ConstantProcess(double value) noexcept : value_(value) {}
  double sample(TimePoint) override { return value_; }

 private:
  double value_;
};

/// Linear ramp from `from` to `to` over [start, start+length], clamped
/// outside the window. This generates the paper's 30→100 sweeps.
class RampProcess final : public LoadProcess {
 public:
  RampProcess(double from, double to, TimePoint start,
              Duration length) noexcept
      : from_(from), to_(to), start_(start), length_(length) {}
  double sample(TimePoint t) override;

 private:
  double from_;
  double to_;
  TimePoint start_;
  Duration length_;
};

}  // namespace collabqos::sim
