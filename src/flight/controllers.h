// The PID cascade: position P -> velocity PID -> attitude P -> rate PID ->
// motor mixer, the classic multicopter control structure ArduPilot uses.
#ifndef SRC_FLIGHT_CONTROLLERS_H_
#define SRC_FLIGHT_CONTROLLERS_H_

#include <array>

#include "src/hw/motors.h"
#include "src/util/status.h"
#include "src/util/time.h"

namespace androne {

class PidLoop {
 public:
  PidLoop(double kp, double ki, double kd, double integrator_limit)
      : kp_(kp), ki_(ki), kd_(kd), integrator_limit_(integrator_limit) {}

  double Update(double error, SimDuration dt);
  void Reset();

  // Checkpoint/restore: dynamic state only (gains are config).
  template <class Ar>
  void Visit(Ar& ar) {
    ar.F64(integrator_);
    ar.F64(last_error_);
    ar.Bool(has_last_);
  }

 private:
  double kp_, ki_, kd_;
  double integrator_limit_;
  double integrator_ = 0;
  double last_error_ = 0;
  bool has_last_ = false;
};

// Desired attitude + collective thrust produced by the outer loops.
struct AttitudeTarget {
  double roll_rad = 0;
  double pitch_rad = 0;
  double yaw_rad = 0;
  double thrust = 0;  // Normalized collective [0, 1].
};

// Inner loops: attitude P feeding body-rate PIDs, then the quad-X mixer.
class AttitudeController {
 public:
  AttitudeController();

  // Computes motor throttles for the target given current attitude/rates.
  std::array<double, kNumMotors> Update(const AttitudeTarget& target,
                                        double roll, double pitch, double yaw,
                                        double p, double q, double r,
                                        SimDuration dt);
  void Reset();

  template <class Ar>
  Status Visit(Ar& ar) {
    roll_rate_pid_.Visit(ar);
    pitch_rate_pid_.Visit(ar);
    yaw_rate_pid_.Visit(ar);
    return ar.status();
  }

 private:
  PidLoop roll_rate_pid_;
  PidLoop pitch_rate_pid_;
  PidLoop yaw_rate_pid_;
};

// Outer loops: horizontal position/velocity and altitude control producing
// an AttitudeTarget. Limits encode the paper's "disallow overly aggressive
// maneuvers" restriction (max tilt / climb / speed).
struct PositionControllerLimits {
  double max_tilt_rad = 0.30;
  double max_speed_ms = 6.0;
  double max_climb_ms = 2.5;
  double max_descent_ms = 1.5;
};

class PositionController {
 public:
  explicit PositionController(double hover_throttle);

  // NED position/velocity control toward target (meters, local frame).
  // |yaw| is the current heading used to rotate into body tilt.
  AttitudeTarget Update(double n, double e, double d, double vn, double ve,
                        double vd, double tn, double te, double td,
                        double yaw, double target_yaw, SimDuration dt);

  // Velocity-only control (guided velocity mode / manual override).
  AttitudeTarget UpdateVelocity(double vn, double ve, double vd,
                                double target_vn, double target_ve,
                                double target_vd, double yaw,
                                double target_yaw, SimDuration dt);

  void Reset();
  void set_max_speed(double ms) { limits_.max_speed_ms = ms; }
  const PositionControllerLimits& limits() const { return limits_; }

  // max_speed is mutable at runtime (DO_CHANGE_SPEED / WPNAV_SPEED), so the
  // whole limit block travels with the dynamic state.
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.F64(limits_.max_tilt_rad);
    ar.F64(limits_.max_speed_ms);
    ar.F64(limits_.max_climb_ms);
    ar.F64(limits_.max_descent_ms);
    vel_n_pid_.Visit(ar);
    vel_e_pid_.Visit(ar);
    vel_d_pid_.Visit(ar);
    return ar.status();
  }

 private:
  double hover_throttle_;
  PositionControllerLimits limits_;
  PidLoop vel_n_pid_;
  PidLoop vel_e_pid_;
  PidLoop vel_d_pid_;
};

}  // namespace androne

#endif  // SRC_FLIGHT_CONTROLLERS_H_
