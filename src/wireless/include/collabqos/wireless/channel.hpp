// Wireless channel model for the base-station cell. Implements the
// paper's Eq. (1):
//
//   SIR_i = P_i * G_i / ( sum_{j != i} P_j * G_j + sigma^2 )
//
// with power-law path gain G(d) = k / d^alpha. The paper's noise factor
// ("sigma^2 ... calculated based on the transmitting power of client
// (P/10^...)") is modelled as sigma^2 = P_ref * 10^(-kappa/10): the noise
// floor referenced kappa dB below a nominal transmit power, which matches
// the printed expression's shape and keeps SIR dimensionless.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "collabqos/util/result.hpp"

namespace collabqos::wireless {

/// Station identifier within one cell.
enum class StationId : std::uint32_t {};

[[nodiscard]] constexpr StationId make_station(std::uint32_t raw) noexcept {
  return static_cast<StationId>(raw);
}
[[nodiscard]] constexpr std::uint32_t raw(StationId id) noexcept {
  return static_cast<std::uint32_t>(id);
}

/// Planar position in metres; the base station sits at the origin.
struct Position {
  double x = 0.0;
  double y = 0.0;

  [[nodiscard]] double distance_to_origin() const noexcept {
    return std::hypot(x, y);
  }
};

/// The path gain is 1 / d^4 (urban-cell alpha, unit gain at 1 m, d
/// clamped to 1 m), and the noise floor is 100 mW / 10^(kappa/10).
struct ChannelParams {
  double noise_kappa_db = 50.0;  ///< noise floor P_ref/10^(kappa/10)
  /// Matched-filter despreading gain applied to the wanted signal. The
  /// paper's power-control reference [9] (Goodman & Mandayam) is a CDMA
  /// uplink, where the detector SIR is G_p * P_i G_i / (sum + sigma^2);
  /// the paper's 4 dB image threshold and ~7 dB targets are only mutually
  /// feasible for several clients with such a gain. Set to 1.0 for the
  /// narrowband literal reading of Eq. (1) (used by the Figure 10 bench).
  double processing_gain = 100.0;
};

/// A transmitter as the channel sees it.
struct Transmitter {
  Position position{};
  double tx_power_mw = 100.0;
};

/// The uplink channel of one cell (client -> BS, the only direction the
/// paper evaluates: "Only the forward link (client to BS) is considered").
class Channel {
 public:
  explicit Channel(ChannelParams params = {}) noexcept : params_(params) {}

  /// Add or replace a transmitter.
  void upsert(StationId id, Transmitter transmitter);
  bool remove(StationId id);
  [[nodiscard]] bool contains(StationId id) const {
    return stations_.contains(raw(id));
  }
  [[nodiscard]] std::size_t size() const noexcept { return stations_.size(); }

  [[nodiscard]] Result<Transmitter> transmitter(StationId id) const;
  Status set_position(StationId id, Position position);
  Status set_power(StationId id, double tx_power_mw);

  /// Path gain from `id` to the base station.
  [[nodiscard]] Result<double> path_gain(StationId id) const;
  /// Received power at the BS from `id` (mW).
  [[nodiscard]] Result<double> received_power_mw(StationId id) const;
  /// Thermal/system noise power (mW).
  [[nodiscard]] double noise_power_mw() const noexcept;

  /// Eq. (1) as a linear ratio.
  [[nodiscard]] Result<double> sir(StationId id) const;
  /// Eq. (1) in dB.
  [[nodiscard]] Result<double> sir_db(StationId id) const;

  /// All station ids, ascending.
  [[nodiscard]] std::vector<StationId> stations() const;

  [[nodiscard]] const ChannelParams& params() const noexcept {
    return params_;
  }

 private:
  ChannelParams params_;
  std::map<std::uint32_t, Transmitter> stations_;
};

/// Distributed target-SIR power control (Foschini–Miljanic iteration,
/// the classic result the paper's power-control discussion [9] builds on):
///   P_i <- P_i * target_i / SIR_i, clamped to [min, max].
/// The iteration stops once every SIR is within 0.1 dB of its target.
struct PowerControlParams {
  double target_sir_db = 7.0;
  double min_power_mw = 1.0;
  int max_iterations = 100;
};

/// The power ceiling of every transmitter under power control.
inline constexpr double kMaxPowerMw = 1000.0;

struct PowerControlOutcome {
  bool converged = false;
  int iterations = 0;
};

/// Run the iteration on every station in `channel` until all SIRs are
/// within tolerance of the target or a power bound binds.
PowerControlOutcome run_power_control(Channel& channel,
                                      PowerControlParams params);

/// One synchronous update step; returns the worst |SIR - target| in dB.
double power_control_step(Channel& channel, PowerControlParams params);

}  // namespace collabqos::wireless
