// Virtual time. Integer microseconds keep event ordering exact and make
// runs reproducible across platforms (no floating-point tie ambiguity).
#pragma once

#include <compare>
#include <cstdint>

namespace collabqos::sim {

/// A span of virtual time, microsecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration micros(std::int64_t n) noexcept {
    return Duration(n);
  }
  [[nodiscard]] static constexpr Duration millis(std::int64_t n) noexcept {
    return Duration(n * 1000);
  }
  [[nodiscard]] static constexpr Duration seconds(double s) noexcept {
    return Duration(static_cast<std::int64_t>(s * 1e6));
  }

  [[nodiscard]] constexpr std::int64_t as_micros() const noexcept {
    return micros_;
  }
  [[nodiscard]] constexpr double as_seconds() const noexcept {
    return static_cast<double>(micros_) * 1e-6;
  }

  constexpr auto operator<=>(const Duration&) const = default;
  constexpr Duration operator+(Duration other) const noexcept {
    return Duration(micros_ + other.micros_);
  }
  constexpr Duration operator-(Duration other) const noexcept {
    return Duration(micros_ - other.micros_);
  }
  constexpr Duration operator*(double factor) const noexcept {
    return Duration(static_cast<std::int64_t>(
        static_cast<double>(micros_) * factor));
  }

 private:
  constexpr explicit Duration(std::int64_t micros) noexcept
      : micros_(micros) {}
  std::int64_t micros_ = 0;
};

/// An instant of virtual time since simulation start.
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint from_micros(
      std::int64_t n) noexcept {
    return TimePoint(n);
  }

  [[nodiscard]] constexpr std::int64_t as_micros() const noexcept {
    return micros_;
  }
  [[nodiscard]] constexpr double as_seconds() const noexcept {
    return static_cast<double>(micros_) * 1e-6;
  }

  constexpr auto operator<=>(const TimePoint&) const = default;
  constexpr TimePoint operator+(Duration d) const noexcept {
    return TimePoint(micros_ + d.as_micros());
  }
  constexpr Duration operator-(TimePoint other) const noexcept {
    return Duration::micros(micros_ - other.micros_);
  }

 private:
  constexpr explicit TimePoint(std::int64_t micros) noexcept
      : micros_(micros) {}
  std::int64_t micros_ = 0;
};

}  // namespace collabqos::sim
