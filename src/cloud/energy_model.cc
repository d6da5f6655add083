#include "src/cloud/energy_model.h"

#include <cmath>

namespace androne {

namespace {
constexpr double kGravity = 9.80665;
constexpr double kPi = 3.14159265358979323846;
}  // namespace

EnergyModel::EnergyModel(const EnergyModelParams& params) : params_(params) {}

double EnergyModel::HoverPowerW(double payload_kg) const {
  double mass = params_.frame_mass_kg + payload_kg;
  double thrust = mass * kGravity;
  double disc_area = kPi * params_.rotor_radius_m * params_.rotor_radius_m;
  double ideal = thrust * std::sqrt(thrust) /
                 std::sqrt(2.0 * params_.air_density * disc_area *
                           params_.rotor_count);
  return ideal / params_.drivetrain_efficiency;
}

double EnergyModel::TravelPowerW(double speed_ms, double payload_kg) const {
  return HoverPowerW(payload_kg) *
         (1.0 + params_.travel_power_factor * speed_ms);
}

double EnergyModel::TravelEnergyJ(double distance_m, double speed_ms,
                                  double payload_kg) const {
  if (speed_ms <= 0) {
    return 0;
  }
  return TravelPowerW(speed_ms, payload_kg) * (distance_m / speed_ms);
}

double EnergyModel::LegEnergyJ(const GeoPoint& from, const GeoPoint& to,
                               double speed_ms) const {
  return TravelEnergyJ(Distance3dMeters(from, to), speed_ms);
}

}  // namespace androne
