#include "src/flight/flight_controller.h"

#include <algorithm>
#include <cmath>

#include "src/snapshot/archive.h"
#include "src/util/detmath.h"
#include "src/util/logging.h"

namespace androne {

namespace {

// Loop periods: the 400 Hz fast loop (ArduPilot Copter's), 1 Hz heartbeat,
// 10 Hz attitude and 5 Hz position telemetry; the flight log records every
// 16th fast-loop tick (25 Hz).
constexpr SimDuration kFastLoopPeriod = SecondsF(1.0 / 400.0);
constexpr SimDuration kHeartbeatPeriod = SecondsF(1.0 / 1.0);
constexpr SimDuration kAttitudeTelemetryPeriod = SecondsF(1.0 / 10.0);
constexpr SimDuration kPositionTelemetryPeriod = SecondsF(1.0 / 5.0);
constexpr uint64_t kLogEveryTicks = 16;
// The MAVLink system id the controller stamps and answers to.
constexpr uint8_t kSysId = 1;

constexpr double kWaypointReachedM = 2.0;
constexpr double kRtlAltitudeM = 15.0;
constexpr double kLandDescentMs = 0.75;
constexpr double kDisarmForceMagic = 21196.0;

double ChannelToUnit(uint16_t pwm) {
  // 1000-2000 us -> [-1, 1]; 0 (released) -> 0.
  if (pwm == 0) {
    return 0.0;
  }
  return std::clamp((static_cast<double>(pwm) - 1500.0) / 500.0, -1.0, 1.0);
}

}  // namespace

FlightController::FlightController(SimClock* clock, QuadPhysics* physics,
                                   MotorSet* motors, SensorSource* sensors,
                                   Battery* battery,
                                   FlightControllerConfig config)
    : clock_(clock), physics_(physics), motors_(motors), sensors_(sensors),
      battery_(battery), config_(config), home_frame_(config.home),
      estimator_(config.home),
      // The window must outlast a sender's largest retransmission gap.
      deduper_(clock, /*window=*/Seconds(5)),
      position_ctrl_(physics->hover_throttle()),
      // The Simplex supervisor's default envelope: its limits sit far
      // outside nominal flight (see SafetyEnvelope).
      safety_(clock, SafetyEnvelope{}, physics->hover_throttle()) {
  safety_.SetStageCallback(
      [this](SafetyStage stage, uint32_t reasons) {
        OnSafetyStage(stage, reasons);
      });
  params_["WPNAV_SPEED"] = position_ctrl_.limits().max_speed_ms;
  params_["FENCE_ENABLE"] = 0;
  params_["FENCE_RADIUS"] = fence_.radius_m;
  params_["FENCE_ALT_MAX"] = fence_.max_altitude_m;
}

void FlightController::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  const SimTime now = clock_->now();
  ArmFastLoop(now + kFastLoopPeriod);
  ArmHeartbeat(now + kHeartbeatPeriod);
  ArmAttitude(now + kAttitudeTelemetryPeriod);
  ArmPosition(now + kPositionTelemetryPeriod);
}

void FlightController::Stop() { running_ = false; }

void FlightController::ArmFastLoop(SimTime when) {
  fast_loop_event_ = clock_->ScheduleAt(when, [this] { FastLoop(); });
}

void FlightController::ArmHeartbeat(SimTime when) {
  heartbeat_event_ = clock_->ScheduleAt(when, [this] { HeartbeatTick(); });
}

void FlightController::ArmAttitude(SimTime when) {
  attitude_event_ = clock_->ScheduleAt(when, [this] { AttitudeTick(); });
}

void FlightController::ArmPosition(SimTime when) {
  position_event_ = clock_->ScheduleAt(when, [this] { PositionTick(); });
}

void FlightController::HeartbeatTick() {
  if (!running_) {
    return;
  }
  Heartbeat hb;
  hb.custom_mode = static_cast<uint32_t>(mode_);
  hb.base_mode = kMavModeFlagCustomModeEnabled |
                 (armed_ ? kMavModeFlagSafetyArmed : 0);
  hb.system_status = static_cast<uint8_t>(armed_ ? MavState::kActive
                                                 : MavState::kStandby);
  Send(MavMessage{hb});
  ArmHeartbeat(clock_->now() + kHeartbeatPeriod);
}

void FlightController::AttitudeTick() {
  if (!running_) {
    return;
  }
  Attitude att;
  att.time_boot_ms = static_cast<uint32_t>(ToMillis(clock_->now()));
  att.roll = static_cast<float>(estimator_.attitude().roll_rad);
  att.pitch = static_cast<float>(estimator_.attitude().pitch_rad);
  att.yaw = static_cast<float>(estimator_.attitude().yaw_rad);
  Send(MavMessage{att});
  ArmAttitude(clock_->now() + kAttitudeTelemetryPeriod);
}

void FlightController::PositionTick() {
  if (!running_) {
    return;
  }
  const GeoPoint& p = estimator_.position().position;
  const NedPoint& v = estimator_.position().velocity_ms;
  GlobalPositionInt gpi;
  gpi.time_boot_ms = static_cast<uint32_t>(ToMillis(clock_->now()));
  gpi.lat = static_cast<int32_t>(p.latitude_deg * 1e7);
  gpi.lon = static_cast<int32_t>(p.longitude_deg * 1e7);
  gpi.alt = static_cast<int32_t>(p.altitude_m * 1000);
  gpi.relative_alt = static_cast<int32_t>(p.altitude_m * 1000);
  gpi.vx = static_cast<int16_t>(v.north_m * 100);
  gpi.vy = static_cast<int16_t>(v.east_m * 100);
  gpi.vz = static_cast<int16_t>(v.down_m * 100);
  double hdg = estimator_.attitude().yaw_rad * kRadToDeg;
  while (hdg < 0) {
    hdg += 360;
  }
  gpi.hdg = static_cast<uint16_t>(std::fmod(hdg, 360.0) * 100);
  Send(MavMessage{gpi});

  SysStatus ss;
  constexpr uint32_t kAllSensors =
      kSensorGyro | kSensorAccel | kSensorMag | kSensorBaro | kSensorGps;
  ss.sensors_present = kAllSensors;
  ss.sensors_enabled = kAllSensors;
  uint32_t healthy = kAllSensors;
  auto drop_if_excluded = [&](EstimatorSensor sensor, uint32_t bits) {
    if (estimator_.health(sensor).health == SensorHealth::kExcluded) {
      healthy &= ~bits;
    }
  };
  drop_if_excluded(EstimatorSensor::kImu, kSensorGyro | kSensorAccel);
  drop_if_excluded(EstimatorSensor::kMag, kSensorMag);
  drop_if_excluded(EstimatorSensor::kBaro, kSensorBaro);
  drop_if_excluded(EstimatorSensor::kGps, kSensorGps);
  ss.sensors_health = healthy;
  ss.errors_count1 = static_cast<uint16_t>(
      std::min<uint64_t>(missed_deadlines_, 65535));
  // Voltage/percentage report what the gauge *senses* (the fault layer may
  // sag it); mirrors Battery's linear 10.5-12.6 V discharge model.
  double sensed = SensedBatteryFraction();
  ss.voltage_battery = static_cast<uint16_t>(
      (10.5 + 2.1 * std::max(0.0, sensed)) * 1000);
  ss.battery_remaining = static_cast<int8_t>(sensed * 100);
  Send(MavMessage{ss});
  ArmPosition(clock_->now() + kPositionTelemetryPeriod);
}

NedPoint FlightController::EstimatedNed() const {
  return home_frame_.ToNed(estimator_.position().position);
}

void FlightController::SetLatencySampler(WakeLatencySampler* sampler) {
  if (sampler == nullptr) {
    latency_source_ = nullptr;
  } else {
    latency_source_ = [sampler] { return sampler->SampleUs(); };
  }
}

double FlightController::SensedBatteryFraction() const {
  return battery_gauge_ ? battery_gauge_() : battery_->fraction_remaining();
}

SafetyVerdict FlightController::SafetyTick(const NedPoint& ned,
                                           SimDuration dt) {
  SafetyInputs in;
  in.roll_rad = estimator_.attitude().roll_rad;
  in.pitch_rad = estimator_.attitude().pitch_rad;
  in.yaw_rad = estimator_.attitude().yaw_rad;
  // Raw measured rates, not truth: the supervisor has no privileged view.
  in.roll_rate_rads = estimator_.last_gyro()[0];
  in.pitch_rate_rads = estimator_.last_gyro()[1];
  in.yaw_rate_rads = estimator_.last_gyro()[2];
  in.altitude_m = estimator_.position().position.altitude_m;
  in.horizontal_from_home_m = detmath::Hypot(ned.north_m, ned.east_m);
  in.sensors_degraded = estimator_.any_excluded();
  in.imu_degraded =
      estimator_.health(EstimatorSensor::kImu).health != SensorHealth::kHealthy;
  in.airborne = physics_->truth().airborne;
  in.armed = armed_;
  return safety_.Tick(in, dt);
}

std::array<double, kNumMotors> FlightController::OverrideOutput(
    const SafetyVerdict& verdict, SimDuration dt) {
  const DroneGroundTruth& truth = physics_->truth();
  // rate_only: feed the target back as the "current" attitude so the
  // attitude error is zero and the inner loops reduce to rate damping —
  // the attitude estimate is exactly what the override distrusts.
  double roll = verdict.rate_only ? verdict.target.roll_rad
                                  : estimator_.attitude().roll_rad;
  double pitch = verdict.rate_only ? verdict.target.pitch_rad
                                   : estimator_.attitude().pitch_rad;
  double yaw = verdict.rate_only ? verdict.target.yaw_rad
                                 : estimator_.attitude().yaw_rad;
  return attitude_ctrl_.Update(verdict.target, roll, pitch, yaw,
                               truth.roll_rate_rads, truth.pitch_rate_rads,
                               truth.yaw_rate_rads, dt);
}

void FlightController::OnSafetyStage(SafetyStage stage, uint32_t reasons) {
  const std::string why = SafetyReasonsToString(reasons);
  switch (stage) {
    case SafetyStage::kNominal:
      // Complex stack gets control back: loiter where the override left us
      // (its previous targets are minutes stale) unless the pilot mode
      // never used position control in the first place.
      hold_target_ = EstimatedNed();
      position_ctrl_.Reset();
      if (mode_ != CopterMode::kStabilize && mode_ != CopterMode::kAltHold) {
        (void)SwitchMode(CopterMode::kLoiter);
      }
      SendStatusText(MavSeverity::kNotice,
                     "Safety release: control returned (" + why + ")");
      if (on_safety_release_) {
        on_safety_release_();
      }
      break;
    case SafetyStage::kLevelHold:
      SendStatusText(MavSeverity::kWarning,
                     "Safety override: level-hold (" + why + ")");
      if (on_safety_override_) {
        on_safety_override_();
      }
      break;
    case SafetyStage::kDescend:
      SendStatusText(MavSeverity::kCritical,
                     "Safety override: descending (" + why + ")");
      break;
    case SafetyStage::kCutoff:
      SendStatusText(MavSeverity::kEmergency,
                     "Safety override: motor cutoff (" + why + ")");
      armed_ = false;
      (void)motors_->Disarm(motors_->opener());
      break;
  }
}

void FlightController::FastLoop() {
  if (!running_) {
    return;
  }
  ++fast_loops_;

  // Replay fast path (DESIGN.md §15): drive this tick from the recorded
  // continuous-plane sample instead of the live sensor → estimator →
  // PID-cascade → physics pipeline. The discrete layer below (deadline
  // accounting, safety supervisor, the mode step, failsafes, flight log)
  // still executes live against the installed values. A dry source counts
  // an underrun and falls back to the live pipeline for the tick.
  const FlightPlaneSample* replay = nullptr;
  if (plane_source_) {
    replay = plane_source_();
    if (replay == nullptr) {
      ++replay_underruns_;
    } else {
      ++replay_ticks_;
    }
  }

  // Kernel wake latency: a late wake past the loop budget misses this
  // control cycle — motors hold their previous outputs (paper §6.2). At
  // replay the recorded per-tick latency substitutes for the sampler
  // (negative = the recording run had no latency source).
  double latency_us = -1;
  if (replay != nullptr) {
    latency_us = replay->wake_latency_us;
  } else if (latency_source_) {
    latency_us = latency_source_();
  }
  bool missed = latency_us > kArdupilotFastLoopBudgetUs;
  if (missed) {
    ++missed_deadlines_;
  }
  safety_.RecordDeadline(missed);

  if (replay != nullptr) {
    // Phase 1 of the two-phase install: control logic must see *this*
    // tick's estimator outputs but the *previous* tick's ground truth
    // (live physics steps after RunControl), so the estimator installs
    // here and the truth installs after the control block.
    std::array<SensorHealth, kNumEstimatorSensors> health;
    for (int i = 0; i < kNumEstimatorSensors; ++i) {
      health[static_cast<size_t>(i)] = static_cast<SensorHealth>(
          replay->est_health[static_cast<size_t>(i)]);
    }
    estimator_.InstallReplayOutputs(replay->est_attitude,
                                    replay->est_position,
                                    replay->est_last_fix_time, health,
                                    replay->est_gyro,
                                    replay->est_dead_reckoning);
  }

  if (!missed) {
    RunControl(kFastLoopPeriod, /*replaying=*/replay != nullptr);
  } else if (armed_) {
    // Simplex split: the complex stack lost this cycle, but the safety
    // supervisor is exempt — it still observes, and if it is overriding it
    // still flies instead of letting the motors coast on stale outputs.
    SafetyVerdict verdict = SafetyTick(EstimatedNed(), kFastLoopPeriod);
    if (replay == nullptr) {
      if (verdict.overriding) {
        std::array<double, kNumMotors> out{0, 0, 0, 0};
        if (!verdict.cut_motors) {
          out = OverrideOutput(verdict, kFastLoopPeriod);
        }
        last_output_ = out;
        (void)motors_->SetThrottles(motors_->opener(), out);
      } else {
        (void)motors_->SetThrottles(motors_->opener(), last_output_);
      }
    }
  }

  // Advance the airframe and drain the battery (rotor power only; compute
  // power is accounted machine-wide by the power model). Phase 2 at
  // replay: the recorded truth lands here — including rotor_power_w, so
  // the unchanged Drain line integrates the exact same energy.
  if (replay != nullptr) {
    *physics_->mutable_truth() = replay->truth;
  } else {
    physics_->Step(kFastLoopPeriod, *motors_);
  }
  battery_->Drain(physics_->total_rotor_power_w(), kFastLoopPeriod);

  // Flight log at 25 Hz.
  if (fast_loops_ % kLogEveryTicks == 0) {
    const DroneGroundTruth& truth = physics_->truth();
    FlightLogEntry entry;
    entry.time = clock_->now();
    entry.est_roll_rad = estimator_.attitude().roll_rad;
    entry.est_pitch_rad = estimator_.attitude().pitch_rad;
    entry.est_yaw_rad = estimator_.attitude().yaw_rad;
    entry.true_roll_rad = truth.roll_rad;
    entry.true_pitch_rad = truth.pitch_rad;
    entry.true_yaw_rad = truth.yaw_rad;
    entry.altitude_m = truth.position.altitude_m;
    entry.mode = static_cast<uint32_t>(mode_);
    entry.armed = armed_;
    log_.Record(entry);
  }

  // Recorder (active in both modes — record-during-replay must reproduce
  // the log byte-for-byte): capture exactly what a replaying tick installs,
  // post-read estimator outputs and post-step truth.
  if (plane_recorder_) {
    FlightPlaneSample sample;
    sample.wake_latency_us = latency_us;
    sample.est_attitude = estimator_.attitude();
    sample.est_position = estimator_.position();
    sample.est_last_fix_time = estimator_.last_fix_time();
    for (int i = 0; i < kNumEstimatorSensors; ++i) {
      sample.est_health[static_cast<size_t>(i)] = static_cast<uint8_t>(
          estimator_.health(static_cast<EstimatorSensor>(i)).health);
    }
    sample.est_gyro = estimator_.last_gyro();
    sample.est_dead_reckoning = estimator_.dead_reckoning();
    sample.truth = physics_->truth();
    plane_recorder_(sample);
  }

  ArmFastLoop(clock_->now() + kFastLoopPeriod);
}

void FlightController::RunControl(SimDuration dt, bool replaying) {
  // Sensor reads: IMU every tick; baro/mag at 25 Hz; GPS at 5 Hz. At
  // replay the reads and filter updates are skipped (their outputs were
  // installed by FastLoop) but the cadence stamps still advance, so an
  // underrun tick that falls back live resumes the exact read schedule.
  if (!replaying) {
    auto imu = sensors_->ReadImu();
    if (imu.ok()) {
      estimator_.UpdateImu(*imu, dt);
    }
  }
  if (clock_->now() - last_slow_read_ >= Millis(40)) {
    last_slow_read_ = clock_->now();
    if (!replaying) {
      auto baro = sensors_->ReadBaroAltitude();
      if (baro.ok()) {
        estimator_.UpdateBaro(*baro);
      }
      auto mag = sensors_->ReadMagHeading();
      if (mag.ok()) {
        estimator_.UpdateMag(*mag);
      }
    }
  }
  if (clock_->now() - last_gps_read_ >= Millis(200)) {
    last_gps_read_ = clock_->now();
    if (!replaying) {
      auto gps = sensors_->ReadGps();
      if (gps.ok()) {
        estimator_.UpdateGps(*gps);
      }
    }
    // GPS glitch detection (EKF-failsafe analog): with no fresh fix the
    // position/velocity estimates are stale and must not drive the outer
    // loops — hold a level attitude until the fix returns, then loiter.
    bool stale = estimator_.position().valid &&
                 clock_->now() - estimator_.last_fix_time() > Seconds(2);
    if (stale && !gps_glitch_ && armed_ && physics_->truth().airborne) {
      gps_glitch_ = true;
      SendStatusText(MavSeverity::kWarning,
                     "GPS glitch: holding level attitude");
    } else if (!stale && gps_glitch_) {
      gps_glitch_ = false;
      hold_target_ = EstimatedNed();
      position_ctrl_.Reset();
      if (mode_ != CopterMode::kStabilize && mode_ != CopterMode::kAltHold) {
        (void)SwitchMode(CopterMode::kLoiter);
      }
      SendStatusText(MavSeverity::kInfo, "GPS reacquired; loitering");
    }
  }

  if (clock_->now() - last_fence_check_ >= Millis(100)) {
    last_fence_check_ = clock_->now();
    CheckFence();
    // Battery failsafe: force RTL so the drone always makes it home
    // (checked at the fence cadence; 10 Hz is plenty for a slow signal).
    if (config_.battery_failsafe_fraction > 0 && armed_ &&
        physics_->truth().airborne && !battery_failsafe_triggered_ &&
        SensedBatteryFraction() < config_.battery_failsafe_fraction &&
        mode_ != CopterMode::kRtl && mode_ != CopterMode::kLand) {
      battery_failsafe_triggered_ = true;
      SendStatusText(MavSeverity::kCritical, "Battery failsafe: RTL");
      (void)SwitchMode(CopterMode::kRtl);
    }
  }

  // The supervisor ticks before the armed check so a cutoff episode can
  // close once the vehicle is down and disarmed. It and the mode step read
  // the same estimate, so the NED position is computed once.
  const NedPoint ned = EstimatedNed();
  SafetyVerdict safety_verdict = SafetyTick(ned, dt);

  if (!armed_) {
    return;
  }

  if (safety_verdict.cut_motors) {
    last_output_ = {0, 0, 0, 0};
    (void)motors_->SetThrottles(motors_->opener(), last_output_);
    return;
  }

  // While the supervisor is overriding, the complex mode logic is bypassed
  // entirely — its mission/mode state machines would act on the same
  // estimates the override distrusts. At replay the mode step still runs
  // (mission advance, mode switches, StatusTexts are discrete state) but
  // setpoint tracking, the attitude cascade and the motor writes are
  // skipped — their only consumer is the physics step, which the recorded
  // truth replaces.
  if (safety_verdict.overriding) {
    if (!replaying) {
      std::array<double, kNumMotors> out = OverrideOutput(safety_verdict, dt);
      last_output_ = out;
      (void)motors_->SetThrottles(motors_->opener(), out);
    }
  } else {
    const ModeSetpoint setpoint = ModeStep(ned, dt);
    if (!replaying) {
      AttitudeTarget target = TrackSetpoint(setpoint, ned, dt);
      const DroneGroundTruth& truth = physics_->truth();
      // Inner loops consume the *estimated* attitude and the gyro rates
      // (which the IMU provides essentially directly).
      std::array<double, kNumMotors> out = attitude_ctrl_.Update(
          target, estimator_.attitude().roll_rad,
          estimator_.attitude().pitch_rad, estimator_.attitude().yaw_rad,
          truth.roll_rate_rads, truth.pitch_rate_rads, truth.yaw_rate_rads,
          dt);
      last_output_ = out;
      (void)motors_->SetThrottles(motors_->opener(), out);
    }
  }

  // LAND completes when the airframe settles on the ground.
  if (mode_ == CopterMode::kLand && !physics_->truth().airborne &&
      std::fabs(physics_->truth().velocity_ms.down_m) < 0.05) {
    armed_ = false;
    (void)motors_->Disarm(motors_->opener());
    SendStatusText(MavSeverity::kInfo, "Disarming motors");
  }
}

FlightController::ModeSetpoint FlightController::ModeStep(
    const NedPoint& ned, SimDuration dt) {
  auto make = [](ModeSetpoint::Kind kind, const NedPoint& target) {
    ModeSetpoint setpoint;
    setpoint.kind = kind;
    setpoint.ned = target;
    return setpoint;
  };
  auto position = [&](const NedPoint& target) {
    return make(ModeSetpoint::Kind::kPosition, target);
  };
  auto velocity = [&](const NedPoint& target) {
    return make(ModeSetpoint::Kind::kVelocity, target);
  };

  // GPS glitch: the position loops would chase stale estimates, so hold a
  // level attitude at hover thrust (drag bleeds off residual velocity).
  if (gps_glitch_) {
    ModeSetpoint level;
    level.attitude.yaw_rad = estimator_.attitude().yaw_rad;
    level.attitude.thrust = physics_->hover_throttle();
    return level;
  }

  // Geofence recovery overrides every mode (paper §4.3).
  if (fence_recovering_) {
    return position(fence_recovery_target_);
  }

  switch (mode_) {
    case CopterMode::kStabilize: {
      ModeSetpoint direct;
      AttitudeTarget& t = direct.attitude;
      t.roll_rad = ChannelToUnit(rc_.chan[0]) * 0.30;
      t.pitch_rad = ChannelToUnit(rc_.chan[1]) * 0.30;
      t.yaw_rad = target_yaw_ += ChannelToUnit(rc_.chan[3]) * 1.5 *
                                 ToSecondsF(dt);
      // Throttle channel maps directly to collective.
      double thr = rc_.chan[2] == 0
                       ? physics_->hover_throttle()
                       : (static_cast<double>(rc_.chan[2]) - 1000.0) / 1000.0;
      t.thrust = std::clamp(thr, 0.0, 0.95);
      return direct;
    }
    case CopterMode::kAltHold: {
      // Hold altitude; RC adjusts attitude and climb.
      double climb = -ChannelToUnit(rc_.chan[2]) * 1.5;  // Up stick = climb.
      ModeSetpoint hold = velocity(NedPoint{0, 0, climb});
      hold.rc_tilt = true;
      hold.attitude.roll_rad = ChannelToUnit(rc_.chan[0]) * 0.30;
      hold.attitude.pitch_rad = ChannelToUnit(rc_.chan[1]) * 0.30;
      return hold;
    }
    case CopterMode::kGuided:
      if (guided_velocity_.has_value()) {
        return velocity(*guided_velocity_);
      }
      return position(guided_target_.value_or(ned));
    case CopterMode::kLoiter:
      return position(hold_target_);
    case CopterMode::kAuto: {
      if (mission_index_ < mission_.size()) {
        NedPoint wp = home_frame_.ToNed(mission_[mission_index_]);
        double dist = detmath::Hypot(wp.north_m - ned.north_m,
                                 wp.east_m - ned.east_m,
                                 wp.down_m - ned.down_m);
        if (dist < kWaypointReachedM) {
          ++mission_index_;
          if (mission_index_ >= mission_.size()) {
            hold_target_ = ned;
            (void)SwitchMode(CopterMode::kLoiter);
            SendStatusText(MavSeverity::kInfo, "Mission complete");
          }
        }
        return position(wp);
      }
      return position(hold_target_);
    }
    case CopterMode::kRtl: {
      // Return at the greater of the current altitude and the RTL floor,
      // then hand off to LAND above home.
      double return_alt = std::max(-ned.down_m, kRtlAltitudeM);
      double horiz = detmath::Hypot(ned.north_m, ned.east_m);
      if (horiz < kWaypointReachedM) {
        hold_target_ = NedPoint{0, 0, ned.down_m};
        (void)SwitchMode(CopterMode::kLand);
        SendStatusText(MavSeverity::kInfo, "RTL: reached home, landing");
        return velocity(NedPoint{0, 0, kLandDescentMs});
      }
      return position(NedPoint{0, 0, -return_alt});
    }
    case CopterMode::kLand:
      return velocity(NedPoint{(hold_target_.north_m - ned.north_m) * 0.5,
                               (hold_target_.east_m - ned.east_m) * 0.5,
                               kLandDescentMs});
  }
  return ModeSetpoint{};
}

AttitudeTarget FlightController::TrackSetpoint(const ModeSetpoint& setpoint,
                                               const NedPoint& ned,
                                               SimDuration dt) {
  const NedPoint& vel = estimator_.position().velocity_ms;
  double yaw = estimator_.attitude().yaw_rad;
  const NedPoint& sp = setpoint.ned;
  switch (setpoint.kind) {
    case ModeSetpoint::Kind::kAttitude:
      return setpoint.attitude;
    case ModeSetpoint::Kind::kPosition:
      return position_ctrl_.Update(ned.north_m, ned.east_m, ned.down_m,
                                   vel.north_m, vel.east_m, vel.down_m,
                                   sp.north_m, sp.east_m, sp.down_m, yaw,
                                   target_yaw_, dt);
    case ModeSetpoint::Kind::kVelocity: {
      AttitudeTarget t = position_ctrl_.UpdateVelocity(
          vel.north_m, vel.east_m, vel.down_m, sp.north_m, sp.east_m,
          sp.down_m, yaw, target_yaw_, dt);
      if (setpoint.rc_tilt) {
        t.roll_rad = setpoint.attitude.roll_rad;
        t.pitch_rad = setpoint.attitude.pitch_rad;
      }
      return t;
    }
  }
  return setpoint.attitude;
}

void FlightController::CheckFence() {
  if (!fence_.enabled || !armed_ || !physics_->truth().airborne) {
    return;
  }
  const GeoPoint& pos = estimator_.position().position;
  double horiz = HaversineMeters(pos, fence_.center);
  bool outside = horiz > fence_.radius_m || pos.altitude_m > fence_.max_altitude_m;
  if (!fence_recovering_ && outside) {
    // Breach: notify, then guide back inside and loiter (paper §4.3) —
    // never the stock failsafe landing, the flight must continue.
    fence_recovering_ = true;
    SendStatusText(MavSeverity::kWarning, "Geofence breached");
    NedPoint ned = EstimatedNed();
    NedPoint center = home_frame_.ToNed(fence_.center);
    double dn = center.north_m - ned.north_m;
    double de = center.east_m - ned.east_m;
    double dist = std::max(1e-6, detmath::Hypot(dn, de));
    double pull_back = std::max(0.0, horiz - fence_.radius_m * 0.7);
    fence_recovery_target_ = NedPoint{
        ned.north_m + dn / dist * pull_back,
        ned.east_m + de / dist * pull_back,
        std::max(ned.down_m, -(fence_.max_altitude_m - 2.0)),
    };
    if (on_fence_breach_) {
      on_fence_breach_();
    }
    return;
  }
  if (fence_recovering_ && horiz < fence_.radius_m * 0.9 &&
      pos.altitude_m < fence_.max_altitude_m) {
    fence_recovering_ = false;
    hold_target_ = EstimatedNed();
    (void)SwitchMode(CopterMode::kLoiter);
    SendStatusText(MavSeverity::kInfo, "Geofence recovered; loitering");
    if (on_fence_recovered_) {
      on_fence_recovered_();
    }
  }
}

void FlightController::SetGeofence(const GeofenceConfig& fence) {
  fence_ = fence;
  params_["FENCE_ENABLE"] = fence.enabled ? 1 : 0;
  params_["FENCE_RADIUS"] = fence.radius_m;
  params_["FENCE_ALT_MAX"] = fence.max_altitude_m;
}

void FlightController::SetFenceCallbacks(FenceCallback on_breach,
                                         FenceCallback on_recovered) {
  on_fence_breach_ = std::move(on_breach);
  on_fence_recovered_ = std::move(on_recovered);
}

void FlightController::SetMission(std::vector<GeoPoint> waypoints) {
  mission_ = std::move(waypoints);
  mission_index_ = 0;
}

double FlightController::parameter(const std::string& name,
                                   double fallback) const {
  auto it = params_.find(name);
  return it == params_.end() ? fallback : it->second;
}

void FlightController::Send(const MavMessage& message) {
  if (!sender_) {
    return;
  }
  MavlinkFrame frame = PackMessage(message);
  frame.sysid = kSysId;
  frame.compid = 1;
  frame.seq = tx_seq_++;
  sender_(frame);
}

void FlightController::SendAck(MavCmd command, MavResult result) {
  CommandAck ack;
  ack.command = static_cast<uint16_t>(command);
  ack.result = static_cast<uint8_t>(result);
  deduper_.RecordAck(ack);
  Send(MavMessage{ack});
}

void FlightController::SendStatusText(MavSeverity severity,
                                      const std::string& text) {
  StatusText st;
  st.severity = static_cast<uint8_t>(severity);
  st.text = text;
  Send(MavMessage{st});
  ALOG(kDebug, "flight") << "STATUSTEXT: " << text;
}

void FlightController::HandleFrame(const MavlinkFrame& frame) {
  if (frame.msgid == MavMsgId::kCommandLong) {
    CommandDeduper::Verdict verdict = deduper_.Filter(frame);
    if (verdict.duplicate) {
      // A retransmission of a command already executed (its ack was lost in
      // flight). Re-send the cached ack rather than executing twice.
      if (verdict.cached_ack.has_value()) {
        Send(MavMessage{*verdict.cached_ack});
      }
      return;
    }
  }
  auto message = UnpackMessage(frame);
  if (!message.ok()) {
    return;  // Unknown/garbled: drop, like a real autopilot.
  }
  std::visit(
      [this](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, CommandLong>) {
          HandleCommandLong(m);
        } else if constexpr (std::is_same_v<T, SetMode>) {
          HandleSetMode(m);
        } else if constexpr (std::is_same_v<T, SetPositionTargetGlobalInt>) {
          HandleSetPositionTarget(m);
        } else if constexpr (std::is_same_v<T, RcChannelsOverride>) {
          HandleRcOverride(m);
        } else if constexpr (std::is_same_v<T, ParamSet>) {
          HandleParamSet(m);
        }
        // Telemetry inbound (heartbeats from GCS) is ignored.
      },
      *message);
}

void FlightController::HandleCommandLong(const CommandLong& cmd) {
  if (cmd.target_system != kSysId) {
    return;
  }
  switch (static_cast<MavCmd>(cmd.command)) {
    case MavCmd::kComponentArmDisarm: {
      bool arm = cmd.param1 >= 0.5f;
      if (arm) {
        if (!estimator_.position().valid) {
          SendAck(MavCmd::kComponentArmDisarm, MavResult::kDenied);
          return;
        }
        armed_ = true;
        (void)motors_->Arm(motors_->opener());
        attitude_ctrl_.Reset();
        position_ctrl_.Reset();
        SendStatusText(MavSeverity::kInfo, "Arming motors");
      } else {
        bool force = std::fabs(cmd.param2 - kDisarmForceMagic) < 0.5;
        if (physics_->truth().airborne && !force) {
          SendAck(MavCmd::kComponentArmDisarm, MavResult::kDenied);
          return;
        }
        armed_ = false;
        (void)motors_->Disarm(motors_->opener());
      }
      SendAck(MavCmd::kComponentArmDisarm, MavResult::kAccepted);
      return;
    }
    case MavCmd::kNavTakeoff: {
      if (!armed_ || mode_ != CopterMode::kGuided) {
        SendAck(MavCmd::kNavTakeoff, MavResult::kDenied);
        return;
      }
      NedPoint ned = EstimatedNed();
      guided_velocity_.reset();
      guided_target_ = NedPoint{ned.north_m, ned.east_m,
                                -static_cast<double>(cmd.param7)};
      SendAck(MavCmd::kNavTakeoff, MavResult::kAccepted);
      return;
    }
    case MavCmd::kNavLand:
      hold_target_ = EstimatedNed();
      SendAck(MavCmd::kNavLand, SwitchMode(CopterMode::kLand));
      return;
    case MavCmd::kNavReturnToLaunch:
      SendAck(MavCmd::kNavReturnToLaunch, SwitchMode(CopterMode::kRtl));
      return;
    case MavCmd::kNavLoiterUnlimited:
      hold_target_ = EstimatedNed();
      SendAck(MavCmd::kNavLoiterUnlimited, SwitchMode(CopterMode::kLoiter));
      return;
    case MavCmd::kDoChangeSpeed:
      position_ctrl_.set_max_speed(std::clamp<double>(cmd.param2, 0.5, 12.0));
      params_["WPNAV_SPEED"] = position_ctrl_.limits().max_speed_ms;
      SendAck(MavCmd::kDoChangeSpeed, MavResult::kAccepted);
      return;
    case MavCmd::kConditionYaw: {
      // param1 = target heading deg; param4 = 1 for relative.
      double heading = cmd.param1 * kDegToRad;
      if (cmd.param4 >= 0.5f) {
        heading += estimator_.attitude().yaw_rad;
      }
      target_yaw_ = heading;
      SendAck(MavCmd::kConditionYaw, MavResult::kAccepted);
      return;
    }
    case MavCmd::kDoMountControl: {
      if (!mount_control_) {
        SendAck(MavCmd::kDoMountControl, MavResult::kUnsupported);
        return;
      }
      // param1 pitch, param2 roll, param3 yaw (degrees).
      Status moved = mount_control_(cmd.param1, cmd.param2, cmd.param3);
      SendAck(MavCmd::kDoMountControl,
              moved.ok() ? MavResult::kAccepted : MavResult::kFailed);
      return;
    }
    case MavCmd::kDoDigicamControl: {
      if (!camera_trigger_) {
        SendAck(MavCmd::kDoDigicamControl, MavResult::kUnsupported);
        return;
      }
      Status triggered = camera_trigger_();
      SendAck(MavCmd::kDoDigicamControl, triggered.ok()
                                             ? MavResult::kAccepted
                                             : MavResult::kFailed);
      return;
    }
    default:
      SendAck(static_cast<MavCmd>(cmd.command), MavResult::kUnsupported);
      return;
  }
}

void FlightController::HandleSetMode(const SetMode& sm) {
  if (sm.target_system != kSysId) {
    return;
  }
  SwitchMode(static_cast<CopterMode>(sm.custom_mode));
}

MavResult FlightController::SwitchMode(CopterMode mode) {
  switch (mode) {
    case CopterMode::kStabilize:
    case CopterMode::kAltHold:
      target_yaw_ = estimator_.attitude().yaw_rad;
      break;
    case CopterMode::kGuided:
      guided_target_.reset();
      guided_velocity_.reset();
      break;
    case CopterMode::kLoiter:
    case CopterMode::kLand:
      hold_target_ = EstimatedNed();
      break;
    case CopterMode::kRtl:
      rtl_phase_ = 0;
      break;
    case CopterMode::kAuto:
      if (mission_.empty()) {
        return MavResult::kDenied;
      }
      mission_index_ = 0;
      break;
    default:
      return MavResult::kUnsupported;
  }
  if (mode_ != mode) {
    mode_ = mode;
    SendStatusText(MavSeverity::kInfo,
                   std::string("Mode ") + CopterModeName(mode));
  }
  return MavResult::kAccepted;
}

void FlightController::HandleSetPositionTarget(
    const SetPositionTargetGlobalInt& sp) {
  if (sp.target_system != kSysId || mode_ != CopterMode::kGuided) {
    return;
  }
  // type_mask bit semantics: bit set = ignore that field group.
  constexpr uint16_t kIgnorePosition = 0x0007;
  constexpr uint16_t kIgnoreVelocity = 0x0038;
  if ((sp.type_mask & kIgnorePosition) == 0) {
    GeoPoint target{sp.lat_int / 1e7, sp.lon_int / 1e7,
                    static_cast<double>(sp.alt)};
    guided_target_ = home_frame_.ToNed(target);
    guided_velocity_.reset();
  } else if ((sp.type_mask & kIgnoreVelocity) == 0) {
    guided_velocity_ = NedPoint{sp.vx, sp.vy, sp.vz};
    guided_target_.reset();
  }
  if ((sp.type_mask & 0x0400) == 0) {
    target_yaw_ = sp.yaw;
  }
}

void FlightController::HandleRcOverride(const RcChannelsOverride& rc) {
  if (rc.target_system != kSysId) {
    return;
  }
  rc_ = rc;
  rc_active_ = true;
}

void FlightController::HandleParamSet(const ParamSet& ps) {
  if (ps.target_system != kSysId) {
    return;
  }
  params_[ps.param_id] = ps.param_value;
  if (ps.param_id == "FENCE_ENABLE") {
    fence_.enabled = ps.param_value >= 0.5f;
  } else if (ps.param_id == "FENCE_RADIUS") {
    fence_.radius_m = ps.param_value;
  } else if (ps.param_id == "FENCE_ALT_MAX") {
    fence_.max_altitude_m = ps.param_value;
  } else if (ps.param_id == "WPNAV_SPEED") {
    position_ctrl_.set_max_speed(ps.param_value);
  }
  ParamValue pv;
  pv.param_value = ps.param_value;
  pv.param_id = ps.param_id;
  pv.param_count = static_cast<uint16_t>(params_.size());
  Send(MavMessage{pv});
}

template <class Ar>
Status FlightController::Visit(Ar& ar) {
  ar.Section("FCTL");
  ar.Bool(running_);
  ar.Bool(armed_);
  ar.Enum(mode_, CopterMode::kLand);
  ar.Optional(guided_target_, [&](NedPoint& p) { VisitValue(ar, p); });
  ar.Optional(guided_velocity_, [&](NedPoint& p) { VisitValue(ar, p); });
  ar.F64(target_yaw_);
  VisitValue(ar, hold_target_);
  ar.Seq(mission_, [&](GeoPoint& p) { VisitValue(ar, p); });
  ar.U64(mission_index_);
  ar.I64(rtl_phase_);
  for (uint16_t& c : rc_.chan) {
    ar.U32(c);
  }
  ar.U8(rc_.target_system);
  ar.U8(rc_.target_component);
  ar.Bool(rc_active_);
  ar.Bool(fence_.enabled);
  VisitValue(ar, fence_.center);
  ar.F64(fence_.radius_m);
  ar.F64(fence_.max_altitude_m);
  ar.Bool(fence_recovering_);
  VisitValue(ar, fence_recovery_target_);
  ar.Map(params_, [&](auto& name, double& value) {
    ar.Str(name);
    ar.F64(value);
  });
  ar.Bool(battery_failsafe_triggered_);
  ar.Bool(gps_glitch_);
  for (double& o : last_output_) {
    ar.F64(o);
  }
  ar.U64(fast_loops_);
  ar.U64(missed_deadlines_);
  ar.U8(tx_seq_);
  ar.I64(last_gps_read_);
  ar.I64(last_slow_read_);
  ar.I64(last_fence_check_);
  RETURN_IF_ERROR(estimator_.Visit(ar));
  RETURN_IF_ERROR(deduper_.Visit(ar));
  RETURN_IF_ERROR(attitude_ctrl_.Visit(ar));
  RETURN_IF_ERROR(position_ctrl_.Visit(ar));
  RETURN_IF_ERROR(safety_.Visit(ar));
  RETURN_IF_ERROR(log_.Visit(ar));
  ar.Timer("fc.fast", fast_loop_event_,
           [this](SimTime when) { ArmFastLoop(when); });
  ar.Timer("fc.heartbeat", heartbeat_event_,
           [this](SimTime when) { ArmHeartbeat(when); });
  ar.Timer("fc.attitude", attitude_event_,
           [this](SimTime when) { ArmAttitude(when); });
  ar.Timer("fc.position", position_event_,
           [this](SimTime when) { ArmPosition(when); });
  return ar.status();
}

template Status FlightController::Visit(SaveArchive&);
template Status FlightController::Visit(LoadArchive&);

}  // namespace androne
