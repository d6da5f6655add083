#include "src/flight/quad_physics.h"

#include <algorithm>
#include <cmath>

#include "src/util/detmath.h"

namespace androne {

namespace {
constexpr double kGravity = 9.80665;
}  // namespace

QuadPhysics::QuadPhysics(const GeoPoint& home, const QuadParams& params)
    : params_(params), frame_(home) {
  UpdateGroundTruth();
}

double QuadPhysics::hover_throttle() const {
  return params_.mass_kg * kGravity /
         (kNumMotors * params_.max_thrust_per_motor_n);
}

void QuadPhysics::Step(SimDuration dt, const MotorSet& motors) {
  double dts = ToSecondsF(dt);
  if (dts <= 0) {
    return;
  }

  // Motor thrusts (quad-X: 0 front-right CCW, 1 back-left CCW, 2 front-left
  // CW, 3 back-right CW).
  std::array<double, kNumMotors> thrust{};
  double total_thrust = 0;
  double rotor_power = 0;
  for (int i = 0; i < kNumMotors; ++i) {
    double t = motors.armed() ? motors.throttles()[static_cast<size_t>(i)] : 0.0;
    thrust[static_cast<size_t>(i)] = t * params_.max_thrust_per_motor_n;
    total_thrust += thrust[static_cast<size_t>(i)];
    if (motors.armed()) {
      // Induced power grows as thrust^1.5.
      double t_n = thrust[static_cast<size_t>(i)];
      rotor_power += params_.motor_idle_power_w +
                     params_.rotor_power_coeff * (t_n * std::sqrt(t_n));
    }
  }

  // Body torques.
  double tau_roll = params_.arm_moment_m *
                    ((thrust[1] + thrust[2]) - (thrust[0] + thrust[3]));
  double tau_pitch = params_.arm_moment_m *
                     ((thrust[1] + thrust[3]) - (thrust[0] + thrust[2]));
  double tau_yaw = params_.yaw_torque_coeff *
                   ((thrust[0] + thrust[1]) - (thrust[2] + thrust[3]));

  bool on_ground = ned_.down_m >= -1e-6;

  // Rotational dynamics (small-angle Euler-rate approximation).
  if (!on_ground || total_thrust > params_.mass_kg * kGravity) {
    p_ += (tau_roll - params_.angular_drag * p_) / params_.inertia_xx * dts;
    q_ += (tau_pitch - params_.angular_drag * q_) / params_.inertia_yy * dts;
    r_ += (tau_yaw - params_.angular_drag * r_) / params_.inertia_zz * dts;
    roll_ += p_ * dts;
    pitch_ += q_ * dts;
    yaw_ += r_ * dts;
  } else {
    // Resting on skids: attitude decays to level, no rotation.
    p_ = q_ = r_ = 0;
    roll_ *= 0.9;
    pitch_ *= 0.9;
  }

  // Translational dynamics: thrust along body -z rotated into NED.
  double cphi, sphi, cth, sth, cpsi, spsi;
  detmath::SinCos(roll_, &sphi, &cphi);
  detmath::SinCos(pitch_, &sth, &cth);
  detmath::SinCos(yaw_, &spsi, &cpsi);
  double a_specific = total_thrust / params_.mass_kg;
  double an = -a_specific * (cphi * sth * cpsi + sphi * spsi);
  double ae = -a_specific * (cphi * sth * spsi - sphi * cpsi);
  double ad = kGravity - a_specific * cphi * cth;

  // Aerodynamic drag.
  an -= params_.linear_drag * vel_.north_m / params_.mass_kg;
  ae -= params_.linear_drag * vel_.east_m / params_.mass_kg;
  ad -= params_.linear_drag * vel_.down_m / params_.mass_kg;

  vel_.north_m += an * dts;
  vel_.east_m += ae * dts;
  vel_.down_m += ad * dts;
  ned_.north_m += vel_.north_m * dts;
  ned_.east_m += vel_.east_m * dts;
  ned_.down_m += vel_.down_m * dts;

  // Ground contact.
  if (ned_.down_m > 0) {
    ned_.down_m = 0;
    if (vel_.down_m > 0) {
      vel_.down_m = 0;
      vel_.north_m *= 0.5;  // Skid friction.
      vel_.east_m *= 0.5;
    }
  }

  truth_.rotor_power_w = rotor_power;
  UpdateGroundTruth();
}

void QuadPhysics::UpdateGroundTruth() {
  truth_.position = frame_.FromNed(ned_);
  truth_.velocity_ms = vel_;
  truth_.roll_rad = roll_;
  truth_.pitch_rad = pitch_;
  truth_.yaw_rad = yaw_;
  truth_.roll_rate_rads = p_;
  truth_.pitch_rate_rads = q_;
  truth_.yaw_rate_rads = r_;
  truth_.airborne = ned_.down_m < -0.05;
}

}  // namespace androne
