// Radio resource management at the base station (paper §4.2/§6.3): the
// BS tracks each wireless client's distance, transmit power and SIR,
// grades the modality it will forward for that client against SIR
// thresholds ("different threshold levels of SIR are set for text
// description only, or text and base image, or the full image
// description"), runs target-SIR power control, and requests power
// reductions to conserve battery when a client's SIR overshoots.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "collabqos/wireless/channel.hpp"

namespace collabqos::wireless {

/// What the BS will forward on behalf of / to a client at current SIR.
enum class ModalityGrade : std::uint8_t {
  none = 0,        ///< below even the text threshold (link unusable)
  text_only = 1,
  text_sketch = 2, ///< text description + base-image sketch
  full_image = 3,
};

[[nodiscard]] std::string_view to_string(ModalityGrade grade) noexcept;

struct GradeThresholds {
  double text_db = -6.0;
  double sketch_db = 0.0;
  double image_db = 4.0;  ///< the paper's "SIR threshold for image ... 4 db"
};

struct BatteryState {
  double capacity_mwh = 5000.0;
  double remaining_mwh = 5000.0;

  [[nodiscard]] double fraction() const noexcept {
    return capacity_mwh > 0.0 ? remaining_mwh / capacity_mwh : 0.0;
  }
};

struct RadioClientState {
  StationId id{};
  Position position{};
  double tx_power_mw = 100.0;
  BatteryState battery{};
};

struct RadioManagerParams {
  GradeThresholds thresholds{};
  PowerControlParams power_control{};
  bool power_control_enabled = true;
  /// Overshoot margin above the power-control target beyond which the BS
  /// asks the client to back off (battery conservation, paper §6.3:
  /// "BS requests the client to transmit at a lower power, which also
  /// helps to conserve battery power").
  double conserve_margin_db = 2.0;
};

class RadioResourceManager {
 public:
  RadioResourceManager(ChannelParams channel_params,
                       RadioManagerParams params);

  /// Admit a client. Fails with Errc::conflict if the id is taken.
  Status join(StationId id, Position position, double tx_power_mw,
              BatteryState battery = {});
  Status leave(StationId id);
  [[nodiscard]] std::size_t client_count() const noexcept {
    return clients_.size();
  }

  Status move(StationId id, Position position);
  Status set_power(StationId id, double tx_power_mw);

  /// SIR of `id` at the BS, in dB.
  [[nodiscard]] Result<double> sir_db(StationId id) const;
  /// Modality grade from the client's current SIR.
  [[nodiscard]] Result<ModalityGrade> grade(StationId id) const;
  [[nodiscard]] Result<RadioClientState> state(StationId id) const;

  /// Run the configured power-control loop (no-op when disabled).
  PowerControlOutcome balance();

  /// One battery-conservation sweep: clients whose SIR exceeds
  /// target + margin are asked to scale power down to the target.
  /// Returns the number of clients adjusted.
  std::size_t conserve_battery();

  /// Drain batteries for `seconds` of transmission at current powers.
  /// Clients whose battery empties stop transmitting (grade -> none).
  void advance_time(double seconds);

  /// Basic service assessment at admission (paper §4.2: "the base
  /// station evaluates its distance, transmitting rate and power ...
  /// and returns a basic service assessment").
  struct ServiceAssessment {
    double sir_db = 0.0;
    ModalityGrade grade = ModalityGrade::none;
    double path_gain = 0.0;
    double distance_m = 0.0;
  };
  [[nodiscard]] Result<ServiceAssessment> assess(StationId id) const;

  [[nodiscard]] const Channel& channel() const noexcept { return channel_; }
  [[nodiscard]] Channel& channel() noexcept { return channel_; }
  [[nodiscard]] const RadioManagerParams& params() const noexcept {
    return params_;
  }

 private:
  [[nodiscard]] ModalityGrade grade_for_sir(double sir_db) const noexcept;

  Channel channel_;
  RadioManagerParams params_;
  std::map<std::uint32_t, RadioClientState> clients_;
};

}  // namespace collabqos::wireless
