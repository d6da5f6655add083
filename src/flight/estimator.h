// Attitude & position estimator: a complementary filter over IMU/mag for
// attitude and GPS/baro blending for position — the estimation layer whose
// divergence from truth the paper's DroneKit AED analyzer checks (§6.2).
//
// Hardened against lying sensors: every correction passes an innovation gate
// before it is blended, each sensor carries a health state machine
// (healthy → suspect → excluded on consecutive rejects, back to healthy on
// an accepted read), and when GPS goes quiet or gets excluded the position
// estimate dead-reckons on the last accepted velocity. The safety supervisor
// reads the health states to decide when the complex stack can no longer be
// trusted.
#ifndef SRC_FLIGHT_ESTIMATOR_H_
#define SRC_FLIGHT_ESTIMATOR_H_

#include <array>

#include "src/hw/sensor_io.h"
#include "src/hw/sensors.h"
#include "src/util/status.h"
#include "src/util/geo.h"
#include "src/util/time.h"

namespace androne {

struct AttitudeEstimate {
  double roll_rad = 0;
  double pitch_rad = 0;
  double yaw_rad = 0;
};

struct PositionEstimate {
  GeoPoint position;
  NedPoint velocity_ms;
  bool valid = false;
};

// Field lists shared by the estimator checkpoint and the replay-log tick
// (DESIGN.md §13, §15).
template <class Ar>
void VisitValue(Ar& ar, AttitudeEstimate& a) {
  ar.F64(a.roll_rad);
  ar.F64(a.pitch_rad);
  ar.F64(a.yaw_rad);
}

template <class Ar>
void VisitValue(Ar& ar, PositionEstimate& p) {
  VisitValue(ar, p.position);
  VisitValue(ar, p.velocity_ms);
  ar.Bool(p.valid);
}

enum class EstimatorSensor { kImu = 0, kBaro = 1, kMag = 2, kGps = 3 };
inline constexpr int kNumEstimatorSensors = 4;

enum class SensorHealth {
  kHealthy = 0,
  kSuspect = 1,   // Recent rejects; corrections withheld, watching.
  kExcluded = 2,  // Persistent rejects; sensor out of the blend.
};

struct SensorHealthState {
  SensorHealth health = SensorHealth::kHealthy;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  int consecutive_rejects = 0;
  SimTime last_accept = -1;
};

class Estimator {
 public:
  explicit Estimator(const GeoPoint& home) : home_(home) {
    position_.position = home;
  }

  // High-rate update from the IMU (gyro integration + accel leveling), plus
  // dead-reckoning of position when GPS corrections have gone stale.
  void UpdateImu(const ImuSample& sample, SimDuration dt);

  // Lower-rate corrections.
  void UpdateMag(double heading_rad);
  void UpdateBaro(double altitude_m);
  void UpdateGps(const GpsFix& fix);

  const AttitudeEstimate& attitude() const { return attitude_; }
  const PositionEstimate& position() const { return position_; }
  // Timestamp of the last *accepted* GPS fix (-1 before the first); lets the
  // controller detect GPS glitches and fall back to attitude-only hold. A
  // fix rejected by the innovation gate does not advance this, so gated-out
  // GPS surfaces as staleness to the controller — one degraded path, not
  // two.
  SimTime last_fix_time() const { return last_fix_time_; }

  const SensorHealthState& health(EstimatorSensor sensor) const {
    return health_[static_cast<int>(sensor)];
  }
  bool any_excluded() const;
  // True while position is propagated from velocity instead of GPS.
  bool dead_reckoning() const { return dead_reckoning_; }
  // Latest measured body rates (rad/s), even if the sample was rejected —
  // the safety supervisor monitors raw measurements, not blended state.
  const std::array<double, 3>& last_gyro() const { return last_gyro_; }

  // Replay fast path (DESIGN.md §15): installs the externally-consumed
  // outputs recorded by a reference run, skipping the filter math entirely.
  // Only the consumed surface is written — attitude, position/velocity,
  // fix staleness, per-sensor health verdicts, raw rates, dead-reckoning —
  // so a replayed estimator answers every live query (safety supervisor,
  // mode logic, telemetry, fence) exactly as the recording run did. The
  // internal filter state (baro latch, stuck-IMU detector, accept/reject
  // tallies) is deliberately left stale: a replaying world never
  // checkpoints and never resumes live filtering mid-replay.
  void InstallReplayOutputs(
      const AttitudeEstimate& attitude, const PositionEstimate& position,
      SimTime last_fix_time,
      const std::array<SensorHealth, kNumEstimatorSensors>& health,
      const std::array<double, 3>& gyro, bool dead_reckoning) {
    attitude_ = attitude;
    position_ = position;
    last_fix_time_ = last_fix_time;
    for (int i = 0; i < kNumEstimatorSensors; ++i) {
      health_[static_cast<size_t>(i)].health = health[static_cast<size_t>(i)];
    }
    last_gyro_ = gyro;
    dead_reckoning_ = dead_reckoning;
  }

  // Checkpoint/restore (DESIGN.md §13): every blended/latched value, the
  // per-sensor health machines, and the stuck-IMU detector travel together
  // so a restored estimator continues the exact same filter trajectory.
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("ESTM");
    VisitValue(ar, attitude_);
    VisitValue(ar, position_);
    ar.F64(baro_alt_m_);
    ar.Bool(have_baro_);
    ar.I64(last_fix_time_);
    for (SensorHealthState& h : health_) {
      ar.Enum(h.health, SensorHealth::kExcluded);
      ar.U64(h.accepted);
      ar.U64(h.rejected);
      ar.I64(h.consecutive_rejects);
      ar.I64(h.last_accept);
    }
    for (double& g : last_gyro_) {
      ar.F64(g);
    }
    VisitValue(ar, prev_imu_);
    ar.Bool(have_imu_);
    ar.I64(identical_imu_count_);
    ar.Bool(dead_reckoning_);
    return ar.status();
  }

 private:
  SensorHealthState& state(EstimatorSensor sensor) {
    return health_[static_cast<int>(sensor)];
  }
  void Accept(EstimatorSensor sensor, SimTime at);
  // Records a gated-out reading; suspect after |kSuspectAfter| consecutive
  // rejects, excluded after |kExcludeAfter|.
  void Reject(EstimatorSensor sensor);

  GeoPoint home_;
  AttitudeEstimate attitude_;
  PositionEstimate position_;
  double baro_alt_m_ = 0;
  bool have_baro_ = false;
  SimTime last_fix_time_ = -1;

  std::array<SensorHealthState, kNumEstimatorSensors> health_;
  std::array<double, 3> last_gyro_ = {0, 0, 0};
  // Stuck-IMU detector: consecutive bit-identical samples. Real samples
  // carry fresh Gaussian noise, so exact repeats only happen when a fault
  // latches the sensor.
  ImuSample prev_imu_;
  bool have_imu_ = false;
  int identical_imu_count_ = 0;
  bool dead_reckoning_ = false;
};

}  // namespace androne

#endif  // SRC_FLIGHT_ESTIMATOR_H_
