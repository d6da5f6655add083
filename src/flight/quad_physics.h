// Quadcopter rigid-body dynamics: the SITL-equivalent physics backing the
// whole reproduction (the paper flies a DJI F450 frame with four MN2213
// motors and 9.5" props; §6.6 replaces the airframe with ArduPilot's SITL
// simulator, which this model stands in for). NED axes, ZYX Euler angles,
// explicit Euler integration at the 400 Hz control rate.
#ifndef SRC_FLIGHT_QUAD_PHYSICS_H_
#define SRC_FLIGHT_QUAD_PHYSICS_H_

#include <array>

#include "src/hw/ground_truth.h"
#include "src/hw/motors.h"
#include "src/hw/sensor_io.h"
#include "src/util/status.h"
#include "src/util/geo.h"
#include "src/util/time.h"

namespace androne {

struct QuadParams {
  double mass_kg = 1.6;            // Frame + SBC + battery.
  double max_thrust_per_motor_n = 8.0;
  double arm_moment_m = 0.159;     // l/sqrt(2) for the 450 mm frame.
  double yaw_torque_coeff = 0.016; // N*m of reaction torque per N of thrust.
  double inertia_xx = 0.012;       // kg*m^2.
  double inertia_yy = 0.012;
  double inertia_zz = 0.022;
  double linear_drag = 0.35;       // N per (m/s).
  double angular_drag = 0.04;      // N*m per (rad/s).
  // Electrical rotor power: P = idle + k * thrust^1.5 per motor
  // (momentum theory), calibrated so hover draws ~170 W, matching the
  // >100 W class consumer quad the paper references.
  double motor_idle_power_w = 2.0;
  double rotor_power_coeff = 5.2;
};

class QuadPhysics {
 public:
  QuadPhysics(const GeoPoint& home, const QuadParams& params = QuadParams());

  // Advances the simulation by |dt| using the current motor throttles.
  void Step(SimDuration dt, const MotorSet& motors);

  // Ground-truth view consumed by the sensor device models.
  const DroneGroundTruth& truth() const { return truth_; }
  DroneGroundTruth* mutable_truth() { return &truth_; }

  const GeoPoint& home() const { return frame_.origin(); }
  // Position in the local NED frame around home.
  NedPoint ned_position() const { return ned_; }
  double total_rotor_power_w() const { return truth_.rotor_power_w; }

  // Hover throttle for this airframe (used by controllers as feed-forward).
  double hover_throttle() const;

  // Checkpoint/restore: the full rigid-body state plus the derived ground
  // truth (params/home are config).
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("PHYS");
    VisitValue(ar, ned_);
    VisitValue(ar, vel_);
    ar.F64(roll_);
    ar.F64(pitch_);
    ar.F64(yaw_);
    ar.F64(p_);
    ar.F64(q_);
    ar.F64(r_);
    VisitValue(ar, truth_);
    return ar.status();
  }

 private:
  void UpdateGroundTruth();

  QuadParams params_;
  NedFrame frame_;                    // Local tangent plane around home.
  NedPoint ned_;                      // Position, m (down negative = up).
  NedPoint vel_;                      // Velocity, m/s.
  double roll_ = 0, pitch_ = 0, yaw_ = 0;
  double p_ = 0, q_ = 0, r_ = 0;      // Body rates, rad/s.
  DroneGroundTruth truth_;
};

}  // namespace androne

#endif  // SRC_FLIGHT_QUAD_PHYSICS_H_
