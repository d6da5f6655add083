// ArduPilot-Copter-analog flight controller (paper §4.3, §6). Runs a 400 Hz
// fast loop on the simulated clock: read sensors (through the SensorSource
// seam), update the estimator, run the mode-specific control cascade, and
// write motor outputs; the same tick advances the physics, closing the SITL
// loop. Speaks MAVLink for all external control.
//
// AnDrone-specific: an optional WakeLatencySampler injects the simulated
// kernel's wake latency into every fast-loop tick — a latency above the
// 2500 us budget misses that control cycle (paper §6.2) — and the geofence
// recovery sequence follows the paper's augmented behaviour: notify, guide
// the drone back inside, then hold in LOITER (instead of ArduPilot's
// default failsafe landing) so the multi-tenant flight can continue.
#ifndef SRC_FLIGHT_FLIGHT_CONTROLLER_H_
#define SRC_FLIGHT_FLIGHT_CONTROLLER_H_

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/flight/controllers.h"
#include "src/flight/estimator.h"
#include "src/flight/flight_log.h"
#include "src/flight/quad_physics.h"
#include "src/flight/safety_supervisor.h"
#include "src/flight/sensor_source.h"
#include "src/hw/power.h"
#include "src/mavlink/messages.h"
#include "src/mavlink/reliable.h"
#include "src/rt/kernel_model.h"
#include "src/util/sim_clock.h"

namespace androne {

struct GeofenceConfig {
  bool enabled = false;
  GeoPoint center;
  double radius_m = 100.0;
  double max_altitude_m = 60.0;
};

struct FlightControllerConfig {
  GeoPoint home;
  // Battery failsafe: below this remaining fraction the controller forces
  // RTL so the flight always ends at base (0 disables).
  double battery_failsafe_fraction = 0.15;
};

// One fast-loop tick's worth of continuous-flight-plane state (DESIGN.md
// §15): everything the discrete control/safety/telemetry layer consumes
// from the sensor→estimator→physics pipeline. Recording this per tick and
// re-installing it at replay lets the controller skip sensor synthesis,
// estimator filtering, the whole PID cascade (setpoint tracking through
// the position controller, then the attitude controller), and the physics
// integration — the expensive continuous math — while the discrete layer
// (the mode step, failsafes, fence, safety supervisor, MAVLink, flight
// log) re-executes live and lands on bit-identical digests.
struct FlightPlaneSample {
  // Injected kernel wake latency for this tick; < 0 means the recording
  // run had no latency source attached.
  double wake_latency_us = -1;
  // Estimator outputs, as visible after this tick's sensor reads.
  AttitudeEstimate est_attitude;
  PositionEstimate est_position;
  SimTime est_last_fix_time = -1;
  std::array<uint8_t, kNumEstimatorSensors> est_health{};
  std::array<double, 3> est_gyro{};
  bool est_dead_reckoning = false;
  // Physics ground truth after this tick's integration step.
  DroneGroundTruth truth;
};

// The tick layout of the replay log: ReplayLogWriter and ReplayLog both
// walk this one list, so the two cannot disagree on order or width.
template <class Ar>
void VisitValue(Ar& ar, FlightPlaneSample& s) {
  ar.F64(s.wake_latency_us);
  VisitValue(ar, s.est_attitude);
  VisitValue(ar, s.est_position);
  ar.I64(s.est_last_fix_time);
  for (uint8_t& h : s.est_health) {
    ar.U8(h);
  }
  for (double& g : s.est_gyro) {
    ar.F64(g);
  }
  ar.Bool(s.est_dead_reckoning);
  VisitValue(ar, s.truth);
}

class FlightController {
 public:
  using Sender = std::function<void(const MavlinkFrame&)>;
  using FenceCallback = std::function<void()>;
  // Record/replay seams (DESIGN.md §15). The recorder is called once at
  // the end of every fast-loop tick; it stays active during replay so
  // record-during-replay reproduces the log byte-for-byte (the fixed-point
  // property the replay tests pin). The source supplies the next recorded
  // sample at the start of each tick; a replayed tick runs the mode step
  // but neither setpoint tracking nor the attitude cascade, so both
  // controllers' integrators go stale. Returning nullptr (log exhausted)
  // counts an underrun and falls back to the live pipeline for that tick,
  // stale integrators included.
  using PlaneRecorder = std::function<void(const FlightPlaneSample&)>;
  using PlaneSource = std::function<const FlightPlaneSample*()>;

  FlightController(SimClock* clock, QuadPhysics* physics, MotorSet* motors,
                   SensorSource* sensors, Battery* battery,
                   FlightControllerConfig config);

  // Schedules the fast loop and telemetry; idempotent.
  void Start();
  void Stop();

  // Feeds one inbound MAVLink frame (from MAVProxy).
  void HandleFrame(const MavlinkFrame& frame);
  // Outbound telemetry/acks sink.
  void SetSender(Sender sender) { sender_ = std::move(sender); }

  // Kernel wake-latency injection (Fig. 11 coupling); may be nullptr.
  void SetLatencySampler(WakeLatencySampler* sampler);
  // Arbitrary per-tick wake-latency source in microseconds (tests script
  // deadline-miss storms with this); overrides any sampler.
  void SetLatencySource(std::function<double()> source) {
    latency_source_ = std::move(source);
  }

  void SetPlaneRecorder(PlaneRecorder recorder) {
    plane_recorder_ = std::move(recorder);
  }
  void SetPlaneSource(PlaneSource source) {
    plane_source_ = std::move(source);
  }

  // Battery *gauge* seam: what the controller believes about the battery
  // (the sensor-fault layer sags it); truth keeps draining independently.
  void SetBatteryGauge(std::function<double()> gauge) {
    battery_gauge_ = std::move(gauge);
  }

  // Fired when the safety supervisor takes / returns control (wired to
  // mavproxy so virtual drone commands are suspended during an override).
  void SetSafetyCallbacks(std::function<void()> on_override,
                          std::function<void()> on_release) {
    on_safety_override_ = std::move(on_override);
    on_safety_release_ = std::move(on_release);
  }

  void SetGeofence(const GeofenceConfig& fence);
  void SetFenceCallbacks(FenceCallback on_breach, FenceCallback on_recovered);

  // An AUTO-mode mission (list of waypoints at relative altitudes).
  void SetMission(std::vector<GeoPoint> waypoints);

  // MAV_CMD_DO_DIGICAM_CONTROL handler: real autopilots forward the shutter
  // trigger to the camera component; AnDrone wires this to the device
  // container's CameraService.
  void SetCameraTrigger(std::function<Status()> trigger) {
    camera_trigger_ = std::move(trigger);
  }

  // MAV_CMD_DO_MOUNT_CONTROL handler: (pitch, roll, yaw) in degrees.
  void SetMountControl(
      std::function<Status(double, double, double)> mount_control) {
    mount_control_ = std::move(mount_control);
  }

  // --- Introspection ---
  CopterMode mode() const { return mode_; }
  bool armed() const { return armed_; }
  bool airborne() const { return physics_->truth().airborne; }
  GeoPoint position_estimate() const {
    return estimator_.position().position;
  }
  const Estimator& estimator() const { return estimator_; }
  const FlightLog& flight_log() const { return log_; }
  const GeofenceConfig& geofence() const { return fence_; }
  bool fence_recovering() const { return fence_recovering_; }
  uint64_t fast_loop_count() const { return fast_loops_; }
  uint64_t missed_deadlines() const { return missed_deadlines_; }
  // Ticks driven from a recorded plane sample / ticks where the source ran
  // dry and the live pipeline filled in.
  uint64_t replay_ticks() const { return replay_ticks_; }
  uint64_t replay_underruns() const { return replay_underruns_; }
  // COMMAND_LONG retransmissions recognized and suppressed (the cached ack
  // is re-sent instead of re-executing the command).
  uint64_t duplicate_commands() const {
    return deduper_.duplicates_suppressed();
  }
  bool battery_failsafe_triggered() const {
    return battery_failsafe_triggered_;
  }
  // True while position control is suspended for a GPS glitch.
  bool gps_glitch() const { return gps_glitch_; }
  const SafetySupervisor& safety() const { return safety_; }
  SafetySupervisor& safety() { return safety_; }
  double parameter(const std::string& name, double fallback) const;

  // --- Checkpoint/restore (DESIGN.md §13) ---
  // Lists every field that influences future control decisions plus the
  // four periodic loops' armed deadlines. Callbacks (sender, fence, safety,
  // camera) are re-wired by the restoring world, not persisted.
  // Instantiated for SaveArchive and LoadArchive in flight_controller.cc.
  template <class Ar>
  Status Visit(Ar& ar);

 private:
  // What the mode step asks of the position cascade for one tick (NED
  // around home): a position to fly to, a velocity to hold, or an attitude
  // to fly directly (Stabilize, the GPS-glitch level hold).
  struct ModeSetpoint {
    enum class Kind : uint8_t { kAttitude, kPosition, kVelocity };
    Kind kind = Kind::kAttitude;
    NedPoint ned{};  // kPosition: the target point; kVelocity: the velocity.
    // kAttitude: the whole target. kVelocity with |rc_tilt| (AltHold): its
    // roll and pitch replace the tracker's.
    AttitudeTarget attitude;
    bool rc_tilt = false;
  };

  void FastLoop();
  void RunControl(SimDuration dt, bool replaying);
  void CheckFence();
  // The discrete half of the outer loop: mission advance, mode switches,
  // the RTL → LAND hand-off, the fence-recovery and GPS-glitch holds and
  // Stabilize's yaw integration. Runs live and at replay.
  ModeSetpoint ModeStep(const NedPoint& ned, SimDuration dt);
  // The continuous half: the position controller turns the setpoint into
  // an attitude target. Skipped at replay, like the attitude cascade.
  AttitudeTarget TrackSetpoint(const ModeSetpoint& setpoint,
                               const NedPoint& ned, SimDuration dt);
  void Send(const MavMessage& message);
  void SendAck(MavCmd command, MavResult result);
  void SendStatusText(MavSeverity severity, const std::string& text);
  void HandleCommandLong(const CommandLong& cmd);
  void HandleSetMode(const SetMode& sm);
  void HandleSetPositionTarget(const SetPositionTargetGlobalInt& sp);
  void HandleRcOverride(const RcChannelsOverride& rc);
  void HandleParamSet(const ParamSet& ps);
  MavResult SwitchMode(CopterMode mode);
  SafetyVerdict SafetyTick(const NedPoint& ned, SimDuration dt);
  std::array<double, kNumMotors> OverrideOutput(const SafetyVerdict& verdict,
                                                SimDuration dt);
  void OnSafetyStage(SafetyStage stage, uint32_t reasons);
  double SensedBatteryFraction() const;
  NedPoint EstimatedNed() const;
  // Each loop's one schedule site: runs the loop at |when|.
  void ArmFastLoop(SimTime when);
  void ArmHeartbeat(SimTime when);
  void ArmAttitude(SimTime when);
  void ArmPosition(SimTime when);
  void HeartbeatTick();
  void AttitudeTick();
  void PositionTick();

  SimClock* clock_;
  QuadPhysics* physics_;
  MotorSet* motors_;
  SensorSource* sensors_;
  Battery* battery_;
  FlightControllerConfig config_;
  NedFrame home_frame_;  // NED around config_.home.
  std::function<double()> latency_source_;
  std::function<double()> battery_gauge_;
  PlaneRecorder plane_recorder_;
  PlaneSource plane_source_;
  uint64_t replay_ticks_ = 0;
  uint64_t replay_underruns_ = 0;

  Estimator estimator_;
  CommandDeduper deduper_;
  AttitudeController attitude_ctrl_;
  PositionController position_ctrl_;
  SafetySupervisor safety_;
  FlightLog log_;
  Sender sender_;
  std::function<void()> on_safety_override_;
  std::function<void()> on_safety_release_;

  bool running_ = false;
  bool armed_ = false;
  CopterMode mode_ = CopterMode::kStabilize;

  // Guided-mode targets (NED around home).
  std::optional<NedPoint> guided_target_;
  std::optional<NedPoint> guided_velocity_;
  double target_yaw_ = 0;
  // Loiter/land hold point.
  NedPoint hold_target_{};
  // AUTO mission.
  std::vector<GeoPoint> mission_;
  size_t mission_index_ = 0;
  // RTL phase: 0 climb/return, 1 land.
  int rtl_phase_ = 0;

  // RC override (0 = released).
  RcChannelsOverride rc_{};
  bool rc_active_ = false;

  GeofenceConfig fence_;
  bool fence_recovering_ = false;
  NedPoint fence_recovery_target_{};
  FenceCallback on_fence_breach_;
  FenceCallback on_fence_recovered_;

  std::map<std::string, double> params_;
  bool battery_failsafe_triggered_ = false;
  bool gps_glitch_ = false;
  std::function<Status()> camera_trigger_;
  std::function<Status(double, double, double)> mount_control_;
  std::array<double, kNumMotors> last_output_{0, 0, 0, 0};
  uint64_t fast_loops_ = 0;
  uint64_t missed_deadlines_ = 0;
  uint8_t tx_seq_ = 0;
  // Armed loop timers, retained so checkpoints can persist their deadlines
  // (0 = not scheduled).
  EventId fast_loop_event_ = 0;
  EventId heartbeat_event_ = 0;
  EventId attitude_event_ = 0;
  EventId position_event_ = 0;
  // Sensor read scheduling (GPS 5 Hz, baro 25 Hz, mag 25 Hz).
  SimTime last_gps_read_ = -Seconds(1);
  SimTime last_slow_read_ = -Seconds(1);
  SimTime last_fence_check_ = 0;
};

}  // namespace androne

#endif  // SRC_FLIGHT_FLIGHT_CONTROLLER_H_
