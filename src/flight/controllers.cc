#include "src/flight/controllers.h"

#include <algorithm>
#include <cmath>

#include "src/util/detmath.h"
#include "src/util/geo.h"

namespace androne {

namespace {

double Clamp(double v, double limit) { return std::clamp(v, -limit, limit); }

// Attitude angle error -> rate setpoint gain.
constexpr double kAngleP = 5.0;
constexpr double kMaxRate = 3.5;  // rad/s.

// Position error -> velocity setpoint gain.
constexpr double kPosP = 0.9;
constexpr double kAltP = 1.2;

}  // namespace

double PidLoop::Update(double error, SimDuration dt) {
  double dts = ToSecondsF(dt);
  integrator_ = Clamp(integrator_ + error * dts, integrator_limit_);
  double derivative = 0;
  if (has_last_ && dts > 0) {
    derivative = (error - last_error_) / dts;
  }
  last_error_ = error;
  has_last_ = true;
  return kp_ * error + ki_ * integrator_ + kd_ * derivative;
}

void PidLoop::Reset() {
  integrator_ = 0;
  last_error_ = 0;
  has_last_ = false;
}

AttitudeController::AttitudeController()
    : roll_rate_pid_(0.10, 0.05, 0.0015, 0.5),
      pitch_rate_pid_(0.10, 0.05, 0.0015, 0.5),
      yaw_rate_pid_(0.20, 0.02, 0.0, 0.5) {}

std::array<double, kNumMotors> AttitudeController::Update(
    const AttitudeTarget& target, double roll, double pitch, double yaw,
    double p, double q, double r, SimDuration dt) {
  // Angle error -> rate setpoints.
  double p_sp = Clamp(kAngleP * WrapPi(target.roll_rad - roll), kMaxRate);
  double q_sp = Clamp(kAngleP * WrapPi(target.pitch_rad - pitch), kMaxRate);
  double r_sp = Clamp(kAngleP * WrapPi(target.yaw_rad - yaw), kMaxRate);

  // Rate errors -> mixer inputs.
  double roll_mix = Clamp(roll_rate_pid_.Update(p_sp - p, dt), 0.4);
  double pitch_mix = Clamp(pitch_rate_pid_.Update(q_sp - q, dt), 0.4);
  double yaw_mix = Clamp(yaw_rate_pid_.Update(r_sp - r, dt), 0.2);

  double base = std::clamp(target.thrust, 0.0, 1.0);
  // Quad-X mixer (0 front-right CCW, 1 back-left CCW, 2 front-left CW,
  // 3 back-right CW); positive roll_mix rolls right (left motors up).
  std::array<double, kNumMotors> out{
      base - roll_mix - pitch_mix + yaw_mix,  // 0 front-right.
      base + roll_mix + pitch_mix + yaw_mix,  // 1 back-left.
      base + roll_mix - pitch_mix - yaw_mix,  // 2 front-left.
      base - roll_mix + pitch_mix - yaw_mix,  // 3 back-right.
  };
  for (double& t : out) {
    t = std::clamp(t, 0.0, 1.0);
  }
  return out;
}

void AttitudeController::Reset() {
  roll_rate_pid_.Reset();
  pitch_rate_pid_.Reset();
  yaw_rate_pid_.Reset();
}

PositionController::PositionController(
    double hover_throttle, const PositionControllerLimits& limits)
    : hover_throttle_(hover_throttle), limits_(limits),
      vel_n_pid_(0.16, 0.02, 0.01, 1.0),
      vel_e_pid_(0.16, 0.02, 0.01, 1.0),
      vel_d_pid_(0.22, 0.10, 0.0, 0.8) {}

AttitudeTarget PositionController::Update(double n, double e, double d,
                                          double vn, double ve, double vd,
                                          double tn, double te, double td,
                                          double yaw, double target_yaw,
                                          SimDuration dt) {
  // Position error -> velocity setpoint (speed-limited).
  double vn_sp = kPosP * (tn - n);
  double ve_sp = kPosP * (te - e);
  double speed = detmath::Hypot(vn_sp, ve_sp);
  if (speed > limits_.max_speed_ms) {
    vn_sp *= limits_.max_speed_ms / speed;
    ve_sp *= limits_.max_speed_ms / speed;
  }
  double vd_sp =
      std::clamp(kAltP * (td - d), -limits_.max_climb_ms,
                 limits_.max_descent_ms);  // Down positive: climb negative.
  return UpdateVelocity(vn, ve, vd, vn_sp, ve_sp, vd_sp, yaw, target_yaw, dt);
}

AttitudeTarget PositionController::UpdateVelocity(
    double vn, double ve, double vd, double target_vn, double target_ve,
    double target_vd, double yaw, double target_yaw, SimDuration dt) {
  // Clamp requested velocities to the configured envelope.
  double speed = detmath::Hypot(target_vn, target_ve);
  if (speed > limits_.max_speed_ms) {
    target_vn *= limits_.max_speed_ms / speed;
    target_ve *= limits_.max_speed_ms / speed;
  }
  target_vd = std::clamp(target_vd, -limits_.max_climb_ms,
                         limits_.max_descent_ms);

  // Velocity error -> NED acceleration demand -> tilt.
  double an = vel_n_pid_.Update(target_vn - vn, dt);
  double ae = vel_e_pid_.Update(target_ve - ve, dt);
  double ad = vel_d_pid_.Update(target_vd - vd, dt);

  // Rotate the horizontal demand into the body frame. The physics tilts
  // thrust opposite pitch: pitch down (negative) moves forward (north at
  // yaw 0), roll right (positive) moves east.
  double cy, sy;
  detmath::SinCos(yaw, &sy, &cy);
  double a_fwd = an * cy + ae * sy;
  double a_rgt = -an * sy + ae * cy;

  AttitudeTarget target;
  target.pitch_rad = Clamp(-a_fwd, limits_.max_tilt_rad);
  target.roll_rad = Clamp(a_rgt, limits_.max_tilt_rad);
  target.yaw_rad = target_yaw;
  // Collective: hover feed-forward minus down-acceleration demand (positive
  // ad means accelerate downward -> reduce thrust).
  target.thrust = std::clamp(hover_throttle_ - ad, 0.05, 0.95);
  return target;
}

void PositionController::Reset() {
  vel_n_pid_.Reset();
  vel_e_pid_.Reset();
  vel_d_pid_.Reset();
}

}  // namespace androne
