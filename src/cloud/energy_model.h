// Multirotor energy consumption model after Dorling et al., "Vehicle
// Routing Problems for Drone Delivery" (IEEE TSMC 2017) — the model the
// paper's flight planner is built on (§4). Hover power derives from
// momentum theory:
//     P = eta^-1 * ((W + m) g)^(3/2) / sqrt(2 rho zeta n)
// with W the frame mass, m payload, rho air density, zeta rotor disc area,
// n rotor count, and eta the motor+prop electrical efficiency. Calibrated
// to the prototype airframe (~1.6 kg, 9.5" props, ~170 W hover).
#ifndef SRC_CLOUD_ENERGY_MODEL_H_
#define SRC_CLOUD_ENERGY_MODEL_H_

#include "src/util/geo.h"

namespace androne {

struct EnergyModelParams {
  double frame_mass_kg = 1.6;
  double rotor_count = 4;
  double rotor_radius_m = 0.121;    // 9.5" propeller.
  double air_density = 1.204;       // kg/m^3 at 20 C.
  double drivetrain_efficiency = 0.55;
  // Travel overhead relative to hover (tilt + parasitic drag), per (m/s).
  double travel_power_factor = 0.012;
};

class EnergyModel {
 public:
  explicit EnergyModel(const EnergyModelParams& params = EnergyModelParams());

  // Electrical hover power with |payload_kg| of extra mass, watts.
  double HoverPowerW(double payload_kg = 0.0) const;

  // Power at steady forward speed (hover + speed-dependent overhead).
  double TravelPowerW(double speed_ms, double payload_kg = 0.0) const;

  // Energy to fly |distance_m| at |speed_ms|, joules.
  double TravelEnergyJ(double distance_m, double speed_ms,
                       double payload_kg = 0.0) const;

  // Energy between two waypoints at cruise speed.
  double LegEnergyJ(const GeoPoint& from, const GeoPoint& to,
                    double speed_ms) const;

  const EnergyModelParams& params() const { return params_; }

 private:
  EnergyModelParams params_;
};

}  // namespace androne

#endif  // SRC_CLOUD_ENERGY_MODEL_H_
