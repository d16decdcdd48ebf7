#include "collabqos/wireless/basestation.hpp"

#include <algorithm>

#include "collabqos/telemetry/metrics.hpp"
#include "collabqos/util/decibel.hpp"

namespace collabqos::wireless {

namespace {

// Registry-owned counters: managers are plain value members of the base
// station and may be recreated per cell, so the process totals live in
// the registry rather than per-instance attachments.
telemetry::Counter& radio_counter(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name);
}

}  // namespace

std::string_view to_string(ModalityGrade grade) noexcept {
  switch (grade) {
    case ModalityGrade::none: return "none";
    case ModalityGrade::text_only: return "text-only";
    case ModalityGrade::text_sketch: return "text+sketch";
    case ModalityGrade::full_image: return "full-image";
  }
  return "?";
}

ModalityGrade grade_for_sir(double sir_db) noexcept {
  constexpr double kImageDb = 4.0;
  constexpr double kSketchDb = 0.0;
  constexpr double kTextDb = -6.0;
  if (sir_db >= kImageDb) return ModalityGrade::full_image;
  if (sir_db >= kSketchDb) return ModalityGrade::text_sketch;
  if (sir_db >= kTextDb) return ModalityGrade::text_only;
  return ModalityGrade::none;
}

RadioResourceManager::RadioResourceManager(ChannelParams channel_params,
                                           RadioManagerParams params)
    : channel_(channel_params), params_(params) {}

Status RadioResourceManager::join(StationId id, Position position,
                                  double tx_power_mw, BatteryState battery) {
  if (clients_.contains(raw(id))) {
    return Status(Errc::conflict, "station already joined");
  }
  if (tx_power_mw <= 0.0) {
    return Status(Errc::out_of_range, "power must be positive");
  }
  RadioClientState state;
  state.id = id;
  state.position = position;
  state.tx_power_mw = tx_power_mw;
  state.battery = battery;
  clients_.emplace(raw(id), state);
  channel_.upsert(id, Transmitter{position, tx_power_mw, true});
  static telemetry::Counter& joins = radio_counter("wireless.radio.joins");
  ++joins;
  return {};
}

Status RadioResourceManager::leave(StationId id) {
  if (clients_.erase(raw(id)) == 0) {
    return Status(Errc::no_such_object, "unknown station");
  }
  channel_.remove(id);
  static telemetry::Counter& leaves = radio_counter("wireless.radio.leaves");
  ++leaves;
  return {};
}

Status RadioResourceManager::move(StationId id, Position position) {
  const auto it = clients_.find(raw(id));
  if (it == clients_.end()) {
    return Status(Errc::no_such_object, "unknown station");
  }
  it->second.position = position;
  return channel_.set_position(id, position);
}

Status RadioResourceManager::set_power(StationId id, double tx_power_mw) {
  const auto it = clients_.find(raw(id));
  if (it == clients_.end()) {
    return Status(Errc::no_such_object, "unknown station");
  }
  if (tx_power_mw <= 0.0) {
    return Status(Errc::out_of_range, "power must be positive");
  }
  it->second.tx_power_mw = tx_power_mw;
  return channel_.set_power(id, tx_power_mw);
}

Result<double> RadioResourceManager::sir_db(StationId id) const {
  return channel_.sir_db(id);
}

Result<ModalityGrade> RadioResourceManager::grade(StationId id) const {
  const auto it = clients_.find(raw(id));
  if (it == clients_.end()) {
    return Error{Errc::no_such_object, "unknown station"};
  }
  if (it->second.battery.remaining_mwh <= 0.0) return ModalityGrade::none;
  auto sir = channel_.sir_db(id);
  if (!sir) return sir.error();
  return grade_for_sir(sir.value());
}

Result<RadioClientState> RadioResourceManager::state(StationId id) const {
  const auto it = clients_.find(raw(id));
  if (it == clients_.end()) {
    return Error{Errc::no_such_object, "unknown station"};
  }
  return it->second;
}

PowerControlOutcome RadioResourceManager::balance() {
  if (!params_.power_control_enabled) return {};
  const PowerControlOutcome outcome =
      run_power_control(channel_, params_.power_control);
  static telemetry::Counter& runs =
      radio_counter("wireless.radio.balance_runs");
  static telemetry::Counter& iterations =
      radio_counter("wireless.radio.power_iterations");
  ++runs;
  iterations += static_cast<std::uint64_t>(std::max(0, outcome.iterations));
  // Mirror the channel's converged powers back into client state.
  for (auto& [id, state] : clients_) {
    const auto transmitter = channel_.transmitter(make_station(id));
    if (transmitter) state.tx_power_mw = transmitter.value().tx_power_mw;
  }
  return outcome;
}

std::size_t RadioResourceManager::conserve_battery() {
  std::size_t adjusted = 0;
  const double target = params_.power_control.target_sir_db;
  for (auto& [id, state] : clients_) {
    const auto sir = channel_.sir_db(make_station(id));
    if (!sir) continue;
    if (sir.value() > target + params_.conserve_margin_db) {
      const double scale = from_db(target - sir.value());
      const double new_power =
          std::max(params_.power_control.min_power_mw,
                   state.tx_power_mw * scale);
      if (new_power < state.tx_power_mw) {
        state.tx_power_mw = new_power;
        (void)channel_.set_power(make_station(id), new_power);
        ++adjusted;
      }
    }
  }
  static telemetry::Counter& reductions =
      radio_counter("wireless.radio.battery_power_reductions");
  reductions += adjusted;
  return adjusted;
}

void RadioResourceManager::advance_time(double seconds) {
  for (auto& [id, state] : clients_) {
    if (state.battery.remaining_mwh <= 0.0) continue;
    const double drained_mwh = state.tx_power_mw * seconds / 3600.0;
    state.battery.remaining_mwh =
        std::max(0.0, state.battery.remaining_mwh - drained_mwh);
    if (state.battery.remaining_mwh <= 0.0) {
      (void)channel_.set_transmitting(make_station(id), false);
      static telemetry::Counter& depleted =
          radio_counter("wireless.radio.batteries_depleted");
      ++depleted;
    }
  }
}

Result<RadioResourceManager::ServiceAssessment>
RadioResourceManager::assess(StationId id) const {
  const auto it = clients_.find(raw(id));
  if (it == clients_.end()) {
    return Error{Errc::no_such_object, "unknown station"};
  }
  ServiceAssessment assessment;
  auto sir = channel_.sir_db(id);
  if (!sir) return sir.error();
  assessment.sir_db = sir.value();
  assessment.grade = grade_for_sir(sir.value());
  auto gain = channel_.path_gain(id);
  if (!gain) return gain.error();
  assessment.path_gain = gain.value();
  assessment.distance_m = it->second.position.distance_to_origin();
  return assessment;
}

}  // namespace collabqos::wireless
