#include "collabqos/wireless/channel.hpp"

#include <algorithm>

#include "collabqos/util/decibel.hpp"

namespace collabqos::wireless {

namespace {
constexpr double kPathLossExponent = 4.0;  ///< urban-cell alpha
constexpr double kReferenceGain = 1.0;     ///< gain at 1 m
constexpr double kMinDistance = 1.0;  ///< clamp to avoid the d->0 singularity
constexpr double kNoiseReferencePowerMw = 100.0;  ///< P_ref of the noise model
constexpr double kPowerControlToleranceDb = 0.1;
}  // namespace

void Channel::upsert(StationId id, Transmitter transmitter) {
  stations_[raw(id)] = transmitter;
}

bool Channel::remove(StationId id) { return stations_.erase(raw(id)) > 0; }

Result<Transmitter> Channel::transmitter(StationId id) const {
  const auto it = stations_.find(raw(id));
  if (it == stations_.end()) {
    return Error{Errc::no_such_object, "unknown station"};
  }
  return it->second;
}

Status Channel::set_position(StationId id, Position position) {
  const auto it = stations_.find(raw(id));
  if (it == stations_.end()) {
    return Status(Errc::no_such_object, "unknown station");
  }
  it->second.position = position;
  return {};
}

Status Channel::set_power(StationId id, double tx_power_mw) {
  if (tx_power_mw < 0.0) {
    return Status(Errc::out_of_range, "negative power");
  }
  const auto it = stations_.find(raw(id));
  if (it == stations_.end()) {
    return Status(Errc::no_such_object, "unknown station");
  }
  it->second.tx_power_mw = tx_power_mw;
  return {};
}

Status Channel::set_transmitting(StationId id, bool transmitting) {
  const auto it = stations_.find(raw(id));
  if (it == stations_.end()) {
    return Status(Errc::no_such_object, "unknown station");
  }
  it->second.transmitting = transmitting;
  return {};
}

Result<double> Channel::path_gain(StationId id) const {
  const auto it = stations_.find(raw(id));
  if (it == stations_.end()) {
    return Error{Errc::no_such_object, "unknown station"};
  }
  const double distance =
      std::max(kMinDistance, it->second.position.distance_to_origin());
  return kReferenceGain / std::pow(distance, kPathLossExponent);
}

Result<double> Channel::received_power_mw(StationId id) const {
  const auto it = stations_.find(raw(id));
  if (it == stations_.end()) {
    return Error{Errc::no_such_object, "unknown station"};
  }
  auto gain = path_gain(id);
  if (!gain) return gain.error();
  return it->second.tx_power_mw * gain.value();
}

double Channel::noise_power_mw() const noexcept {
  return kNoiseReferencePowerMw * from_db(-params_.noise_kappa_db);
}

Result<double> Channel::sir(StationId id) const {
  const auto it = stations_.find(raw(id));
  if (it == stations_.end()) {
    return Error{Errc::no_such_object, "unknown station"};
  }
  auto signal = received_power_mw(id);
  if (!signal) return signal.error();
  double interference = noise_power_mw();
  for (const auto& [other_id, other] : stations_) {
    if (other_id == raw(id) || !other.transmitting) continue;
    auto power = received_power_mw(make_station(other_id));
    if (!power) return power.error();
    interference += power.value();
  }
  if (!it->second.transmitting) {
    return Error{Errc::unsupported, "station is not transmitting"};
  }
  return params_.processing_gain * signal.value() / interference;
}

Result<double> Channel::sir_db(StationId id) const {
  auto linear = sir(id);
  if (!linear) return linear.error();
  return to_db(linear.value());
}

std::vector<StationId> Channel::stations() const {
  std::vector<StationId> ids;
  ids.reserve(stations_.size());
  for (const auto& [id, station] : stations_) ids.push_back(make_station(id));
  return ids;
}

double power_control_step(Channel& channel, PowerControlParams params) {
  const double target = from_db(params.target_sir_db);
  // Synchronous update: compute all SIRs against current powers first.
  struct Update {
    StationId id;
    double new_power;
    double error_db;
  };
  std::vector<Update> updates;
  for (const StationId id : channel.stations()) {
    const auto transmitter = channel.transmitter(id);
    if (!transmitter || !transmitter.value().transmitting) continue;
    const auto current = channel.sir(id);
    if (!current) continue;
    const double scale = target / current.value();
    const double new_power =
        std::clamp(transmitter.value().tx_power_mw * scale,
                   params.min_power_mw, kMaxPowerMw);
    const double error_db =
        std::fabs(to_db(current.value()) - params.target_sir_db);
    updates.push_back({id, new_power, error_db});
  }
  double worst_error_db = 0.0;
  for (const Update& update : updates) {
    (void)channel.set_power(update.id, update.new_power);
    worst_error_db = std::max(worst_error_db, update.error_db);
  }
  return worst_error_db;
}

PowerControlOutcome run_power_control(Channel& channel,
                                      PowerControlParams params) {
  PowerControlOutcome outcome;
  for (int i = 0; i < params.max_iterations; ++i) {
    const double worst = power_control_step(channel, params);
    ++outcome.iterations;
    if (worst <= kPowerControlToleranceDb) {
      outcome.converged = true;
      break;
    }
  }
  return outcome;
}

}  // namespace collabqos::wireless
