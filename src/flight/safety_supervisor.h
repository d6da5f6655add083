// Simplex safety supervisor: a minimal, independently-verifiable recovery
// controller beside the complex flight stack (PAPERS.md: container-based
// DoS-resilient UAV control). The envelope monitor watches attitude/rate/
// altitude/radius limits, estimator sensor health, and fast-loop deadline
// misses; when the envelope is violated persistently it takes the motors
// away from the complex controller and walks a fixed recovery ladder:
//
//   kNominal -> kLevelHold -> kDescend -> kCutoff
//
// kLevelHold (level attitude, hover thrust, hold yaw) gives the complex
// stack a grace window to come back inside the envelope — with hysteresis,
// so a single clean tick doesn't hand control straight back. If the
// violation persists, kDescend commits to a controlled descent (no
// un-escalation: a stack that failed level-and-hold doesn't get a second
// chance mid-fall), and kCutoff kills the motors on touchdown. Reasons are
// latched per episode so the tenant can be told *why* the drone was
// overridden long after the trigger cleared.
#ifndef SRC_FLIGHT_SAFETY_SUPERVISOR_H_
#define SRC_FLIGHT_SAFETY_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/flight/controllers.h"
#include "src/rt/deadline_monitor.h"
#include "src/util/sim_clock.h"

namespace androne {

enum class SafetyStage { kNominal = 0, kLevelHold, kDescend, kCutoff };

const char* SafetyStageName(SafetyStage stage);

// Envelope-violation reason bits (latched per episode, reported upstream).
inline constexpr uint32_t kSafetyReasonAttitude = 1u << 0;
inline constexpr uint32_t kSafetyReasonRate = 1u << 1;
inline constexpr uint32_t kSafetyReasonAltitude = 1u << 2;
inline constexpr uint32_t kSafetyReasonGeofence = 1u << 3;
inline constexpr uint32_t kSafetyReasonSensorFault = 1u << 4;
inline constexpr uint32_t kSafetyReasonDeadlineMisses = 1u << 5;

// "attitude+sensor" style summary for STATUSTEXT and the portal.
std::string SafetyReasonsToString(uint32_t reasons);

struct SafetyEnvelope {
  bool enabled = true;
  // Hard flight-envelope limits, deliberately far outside anything the
  // complex stack commands in nominal flight (its attitude targets cap at
  // 0.30 rad) so the supervisor never fights a healthy controller.
  double max_tilt_rad = 0.80;
  double max_rate_rads = 6.0;
  double max_altitude_m = 150.0;
  double max_radius_m = 0.0;  // Horizontal distance from home; 0 disables.
  // Deadline-miss storm detector: misses within the sliding window before
  // the real-time guarantee is considered lost. 40/s at 400 Hz is a 10%
  // miss rate — two orders of magnitude above the healthy PREEMPT ceiling.
  int deadline_miss_threshold = 40;
  SimDuration deadline_miss_window = Seconds(1);
  // Hysteresis: a violation must persist before the override engages, and
  // the envelope must stay clean before control is handed back.
  SimDuration trip_after = Millis(50);
  SimDuration clear_after = Seconds(2);
  // How long level-hold tolerates a persistent *hard* violation (attitude/
  // rate/altitude/geofence breach, deadline storm, degraded IMU) before
  // committing to a descent. Soft violations — a position sensor excluded
  // while attitude flight is intact — hold indefinitely.
  SimDuration level_hold_grace = Seconds(4);
  // Descent thrust as a fraction of hover (slightly under-hover sinks the
  // airframe at drag-limited speed).
  double descent_throttle_scale = 0.96;
  // Below this altitude in kDescend the motors are cut outright.
  double cutoff_altitude_m = 0.4;
};

// One tick's view of the vehicle, fed by the flight controller. Attitude is
// the estimate (what the complex stack believes); rates are raw gyro
// measurements (the supervisor watches measurements, not blended state).
struct SafetyInputs {
  double roll_rad = 0;
  double pitch_rad = 0;
  double yaw_rad = 0;
  double roll_rate_rads = 0;
  double pitch_rate_rads = 0;
  double yaw_rate_rads = 0;
  double altitude_m = 0;
  double horizontal_from_home_m = 0;
  bool sensors_degraded = false;  // Any estimator sensor excluded.
  // Attitude estimation itself is suspect (IMU stuck/excluded): the
  // recovery controller must not chase the attitude estimate.
  bool imu_degraded = false;
  bool airborne = false;
  bool armed = false;
};

struct SafetyVerdict {
  bool overriding = false;
  bool cut_motors = false;
  // With a lying IMU the attitude loop would track a frozen estimate and
  // slowly flip the airframe; damp body rates to zero instead (the minimal
  // controller that needs no attitude estimate at all).
  bool rate_only = false;
  AttitudeTarget target;  // Valid when overriding && !cut_motors.
};

// One override episode, from first engagement to release.
struct SafetyEpisode {
  SimTime entered = 0;
  SimTime released = -1;  // -1 while the override is active.
  uint32_t reasons = 0;   // Union over the episode.
  SafetyStage deepest = SafetyStage::kLevelHold;
};

class SafetySupervisor {
 public:
  // Fired on every stage transition with the stage entered and the
  // episode's latched reasons.
  using StageCallback = std::function<void(SafetyStage, uint32_t)>;

  SafetySupervisor(const SimClock* clock, const SafetyEnvelope& envelope,
                   double hover_throttle)
      : clock_(clock),
        envelope_(envelope),
        hover_throttle_(hover_throttle),
        deadline_monitor_(envelope.deadline_miss_window,
                          envelope.deadline_miss_threshold) {}

  void SetStageCallback(StageCallback callback) {
    stage_callback_ = std::move(callback);
  }

  // Attaches the flight trace category: every stage transition records an
  // instant event ("safety.stage", arg = the stage entered), and the inner
  // deadline monitor records its rt-category miss/storm events. Survives
  // Configure(). Pass nullptr to detach.
  void SetTrace(TraceRecorder* trace);

  // Replaces the envelope (tests tighten it mid-run). Resets the deadline
  // monitor; the stage machine keeps its state.
  void Configure(const SafetyEnvelope& envelope);

  // Feed every fast-loop tick's deadline outcome, including missed ones —
  // the supervisor is exactly the component that must keep observing while
  // the complex stack is stalled.
  void RecordDeadline(bool missed);

  // Advances the stage machine one control tick and returns who flies.
  SafetyVerdict Tick(const SafetyInputs& inputs, SimDuration dt);

  SafetyStage stage() const { return stage_; }
  bool overriding() const { return stage_ != SafetyStage::kNominal; }
  // Reason bits violated on the most recent tick.
  uint32_t active_reasons() const { return active_reasons_; }
  // Union of reasons across the current (or last) episode.
  uint32_t latched_reasons() const {
    return episodes_.empty() ? 0 : episodes_.back().reasons;
  }
  const std::vector<SafetyEpisode>& episodes() const { return episodes_; }
  const SafetyEnvelope& envelope() const { return envelope_; }
  const DeadlineMonitor& deadline_monitor() const { return deadline_monitor_; }

  // Checkpoint/restore: the stage machine, hysteresis timers, episode
  // history, and the inner deadline monitor. The trace attachment and
  // callbacks are rewired by the restoring world, not persisted.
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("SAFE");
    ar.Enum(stage_, SafetyStage::kCutoff);
    ar.U32(active_reasons_);
    ar.F64(hold_yaw_);
    ar.I64(first_bad_);
    ar.I64(first_good_);
    ar.I64(first_hard_);
    ar.I64(stage_entered_);
    ar.Seq(episodes_, [&](SafetyEpisode& e) {
      ar.I64(e.entered);
      ar.I64(e.released);
      ar.U32(e.reasons);
      ar.Enum(e.deepest, SafetyStage::kCutoff);
    });
    return deadline_monitor_.Visit(ar);
  }

 private:
  uint32_t EvaluateEnvelope(const SafetyInputs& inputs) const;
  void EnterStage(SafetyStage stage);

  const SimClock* clock_;
  SafetyEnvelope envelope_;
  double hover_throttle_;
  DeadlineMonitor deadline_monitor_;
  StageCallback stage_callback_;

  SafetyStage stage_ = SafetyStage::kNominal;
  uint32_t active_reasons_ = 0;
  double hold_yaw_ = 0;
  SimTime first_bad_ = -1;   // Violation onset while nominal.
  SimTime first_good_ = -1;  // Clean-envelope onset while overriding.
  SimTime first_hard_ = -1;  // Hard-violation onset while in level-hold.
  SimTime stage_entered_ = 0;
  std::vector<SafetyEpisode> episodes_;
  TraceRecorder* trace_ = nullptr;
  uint32_t stage_name_ = 0;
};

}  // namespace androne

#endif  // SRC_FLIGHT_SAFETY_SUPERVISOR_H_
