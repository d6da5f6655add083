#include "src/flight/estimator.h"

#include <algorithm>
#include <cmath>

#include "src/util/detmath.h"

namespace androne {

namespace {
constexpr double kGravity = 9.80665;
// Complementary-filter blend weights per update.
constexpr double kAccelBlend = 0.02;
constexpr double kMagBlend = 0.05;
constexpr double kBaroBlend = 0.2;
// Stronger accel leveling while the gyro is excluded: the accelerometer is
// then the only attitude reference, so trade noise for convergence.
constexpr double kAccelBlendGyroOut = 0.15;

// Health state machine thresholds.
constexpr int kSuspectAfter = 2;
constexpr int kExcludeAfter = 4;

// Innovation gates. GPS opens with time since the last accepted fix so a
// recovered receiver (or a drone that genuinely moved during an outage) can
// re-enter the blend; the per-sample gates for baro/mag open with
// consecutive rejects for the same reason.
constexpr double kGpsGateBaseM = 15.0;
constexpr double kGpsGateGrowthMps = 5.0;
constexpr double kGpsGateMaxM = 200.0;
constexpr double kBaroGateBaseM = 2.0;
constexpr double kBaroGateGrowthM = 0.05;  // Per consecutive reject.
constexpr double kBaroGateMaxM = 30.0;
constexpr double kMagGateBaseRad = 0.8;
constexpr double kMagGateGrowthRad = 0.02;  // Per consecutive reject.
// Any physically implausible body rate for this airframe.
constexpr double kMaxPlausibleRateRads = 35.0;
// Consecutive bit-identical IMU samples before declaring the sensor stuck.
constexpr int kStuckImuAfter = 8;
// GPS silence before position dead-reckons on the last accepted velocity.
constexpr SimDuration kDeadReckonAfter = Millis(400);
// Dead-reckoned velocity decays toward zero (fraction per second) — without
// corrections, trusting stale velocity forever walks the estimate away.
constexpr double kDeadReckonDecayPerS = 0.5;

// A latched sensor repeats the whole sample, timestamp included; a live
// sensor's timestamp always advances even if the values coincide.
bool SameReading(const ImuSample& a, const ImuSample& b) {
  return a.gyro_rads == b.gyro_rads && a.accel_mss == b.accel_mss &&
         a.timestamp == b.timestamp;
}
}  // namespace

void Estimator::Accept(EstimatorSensor sensor, SimTime at) {
  SensorHealthState& s = state(sensor);
  ++s.accepted;
  s.consecutive_rejects = 0;
  s.health = SensorHealth::kHealthy;
  s.last_accept = at;
}

void Estimator::Reject(EstimatorSensor sensor) {
  SensorHealthState& s = state(sensor);
  ++s.rejected;
  ++s.consecutive_rejects;
  if (s.consecutive_rejects >= kExcludeAfter) {
    s.health = SensorHealth::kExcluded;
  } else if (s.consecutive_rejects >= kSuspectAfter) {
    s.health = SensorHealth::kSuspect;
  }
}

bool Estimator::any_excluded() const {
  for (const SensorHealthState& s : health_) {
    if (s.health == SensorHealth::kExcluded) {
      return true;
    }
  }
  return false;
}

void Estimator::UpdateImu(const ImuSample& sample, SimDuration dt) {
  double dts = ToSecondsF(dt);
  last_gyro_ = sample.gyro_rads;

  // Stuck detection: sensor noise never repeats bit-for-bit, a latched
  // sensor always does.
  if (have_imu_ && SameReading(sample, prev_imu_)) {
    ++identical_imu_count_;
  } else {
    identical_imu_count_ = 0;
  }
  prev_imu_ = sample;
  have_imu_ = true;

  double max_rate = std::max({std::abs(sample.gyro_rads[0]),
                              std::abs(sample.gyro_rads[1]),
                              std::abs(sample.gyro_rads[2])});
  bool stuck = identical_imu_count_ >= kStuckImuAfter;
  bool implausible = max_rate > kMaxPlausibleRateRads;
  bool gyro_usable = !stuck && !implausible;
  if (gyro_usable) {
    Accept(EstimatorSensor::kImu, sample.timestamp);
    // Propagate attitude with gyro rates.
    attitude_.roll_rad += sample.gyro_rads[0] * dts;
    attitude_.pitch_rad += sample.gyro_rads[1] * dts;
    attitude_.yaw_rad += sample.gyro_rads[2] * dts;
  } else {
    Reject(EstimatorSensor::kImu);
  }

  // Level correction from the accelerometer when near 1 g (not maneuvering
  // hard): roll from -a_y, pitch from a_x. With the gyro excluded this is
  // the only attitude reference, so blend harder. A stuck IMU freezes the
  // accelerometer too, in which case the repeated correction pulls toward
  // the latched (near-level hover) attitude — a safe attractor.
  double accel_blend = stuck || state(EstimatorSensor::kImu).health ==
                                    SensorHealth::kExcluded
                           ? kAccelBlendGyroOut
                           : kAccelBlend;
  double ax = sample.accel_mss[0];
  double ay = sample.accel_mss[1];
  double az = sample.accel_mss[2];
  double g_meas = detmath::Hypot(ax, ay, az);
  if (g_meas > 0.8 * kGravity && g_meas < 1.2 * kGravity) {
    double roll_acc = detmath::Asin(std::clamp(-ay / kGravity, -1.0, 1.0));
    double pitch_acc = detmath::Asin(std::clamp(ax / kGravity, -1.0, 1.0));
    attitude_.roll_rad +=
        accel_blend * WrapPi(roll_acc - attitude_.roll_rad);
    attitude_.pitch_rad +=
        accel_blend * WrapPi(pitch_acc - attitude_.pitch_rad);
  }

  // Dead-reckon position on the last accepted velocity while GPS is stale
  // (dropped out or gated away). Decay the velocity: without corrections,
  // yesterday's velocity is a worsening guess.
  if (position_.valid && last_fix_time_ >= 0 &&
      sample.timestamp - last_fix_time_ > kDeadReckonAfter) {
    dead_reckoning_ = true;
    NedPoint step{position_.velocity_ms.north_m * dts,
                  position_.velocity_ms.east_m * dts, 0.0};
    double altitude = position_.position.altitude_m;
    position_.position = FromNed(position_.position, step);
    position_.position.altitude_m = altitude;  // Altitude stays baro-driven.
    double decay = std::max(0.0, 1.0 - kDeadReckonDecayPerS * dts);
    position_.velocity_ms.north_m *= decay;
    position_.velocity_ms.east_m *= decay;
  } else {
    dead_reckoning_ = false;
  }
}

void Estimator::UpdateMag(double heading_rad) {
  double innovation = WrapPi(heading_rad - attitude_.yaw_rad);
  SensorHealthState& s = state(EstimatorSensor::kMag);
  double gate = kMagGateBaseRad + kMagGateGrowthRad * s.consecutive_rejects;
  if (s.accepted > 0 && std::abs(innovation) > std::min(gate, M_PI)) {
    Reject(EstimatorSensor::kMag);
    return;
  }
  Accept(EstimatorSensor::kMag, last_fix_time_);
  attitude_.yaw_rad += kMagBlend * innovation;
}

void Estimator::UpdateBaro(double altitude_m) {
  SensorHealthState& s = state(EstimatorSensor::kBaro);
  if (have_baro_) {
    double innovation = altitude_m - baro_alt_m_;
    double gate = std::min(
        kBaroGateBaseM + kBaroGateGrowthM * s.consecutive_rejects,
        kBaroGateMaxM);
    if (std::abs(innovation) > gate) {
      Reject(EstimatorSensor::kBaro);
      return;
    }
    baro_alt_m_ += kBaroBlend * innovation;
  } else {
    baro_alt_m_ = altitude_m;
    have_baro_ = true;
  }
  Accept(EstimatorSensor::kBaro, last_fix_time_);
  position_.position.altitude_m = baro_alt_m_;
}

void Estimator::UpdateGps(const GpsFix& fix) {
  if (!fix.has_fix) {
    return;
  }
  SensorHealthState& s = state(EstimatorSensor::kGps);
  if (s.accepted > 0) {
    double innovation = HaversineMeters(fix.position, position_.position);
    double since_accept_s =
        s.last_accept >= 0
            ? ToSecondsF(std::max<SimDuration>(0, fix.timestamp -
                                                      s.last_accept))
            : 0.0;
    double gate = std::min(kGpsGateBaseM + kGpsGateGrowthMps * since_accept_s,
                           kGpsGateMaxM);
    if (innovation > gate) {
      // Withhold the correction: position freezes (or dead-reckons) and
      // last_fix_time_ goes stale, which is exactly the controller's
      // GPS-glitch signal.
      Reject(EstimatorSensor::kGps);
      return;
    }
  }
  Accept(EstimatorSensor::kGps, fix.timestamp);
  // Horizontal position from GPS; altitude stays baro-driven (GPS vertical
  // noise is much larger).
  position_.position.latitude_deg = fix.position.latitude_deg;
  position_.position.longitude_deg = fix.position.longitude_deg;
  if (!have_baro_) {
    position_.position.altitude_m = fix.position.altitude_m;
  }
  position_.velocity_ms = fix.velocity_ms;
  position_.valid = true;
  last_fix_time_ = fix.timestamp;
}

}  // namespace androne
