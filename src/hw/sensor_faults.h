// Scripted sensor fault injection, the hw-layer twin of the network chaos
// layer (src/net/fault_injector.h). A SensorFaultPlan is a typed facade over
// the shared util/fault_plan FaultSchedule — dropout, stuck value, bias
// drift, noise inflation, GPS jump, barometer spike, battery sag — so one
// chaos script composes sensor and link fault windows on a single time base
// and replays deterministically under a fixed seed. A SensorFaultInjector
// applies the plan to individual sensor reads; the flight stack sees it
// through FaultySensorSource (src/flight/sensor_source.h), which is the
// point of the exercise: the estimator and safety supervisor must survive
// sensors lying to them, not just sensors going quiet.
#ifndef SRC_HW_SENSOR_FAULTS_H_
#define SRC_HW_SENSOR_FAULTS_H_

#include <optional>

#include "src/hw/sensor_io.h"
#include "src/hw/sensors.h"
#include "src/util/fault_plan.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"

namespace androne {

// Scope values for sensor fault windows.
enum class SensorChannel {
  kGps = 0,
  kImu = 1,
  kBaro = 2,
  kMag = 3,
  kBattery = 4,
};

const char* SensorChannelName(SensorChannel channel);

enum class SensorFaultKind {
  kDropout = 0,         // Reads fail (UNAVAILABLE) for the window.
  kStuck = 1,           // First read in the window latches; all later reads
                        // return the latched value, timestamps frozen.
  kBiasDrift = 2,       // Additive bias ramping at p0 units/second.
  kNoiseInflation = 3,  // Extra zero-mean Gaussian noise, stddev p0.
  kGpsJump = 4,         // Position teleports by (p0 north, p1 east) meters.
  kBaroSpike = 5,       // With probability p1 per read, altitude off by ±p0.
  kBatterySag = 6,      // Sensed fraction scaled by (1 - p0); truth untouched.
};

inline constexpr int kMaxSensorFaultKind =
    static_cast<int>(SensorFaultKind::kBatterySag);
inline constexpr int kMaxSensorChannel =
    static_cast<int>(SensorChannel::kBattery);

// The channel a kind is pinned to, or nullopt for channel-free kinds
// (dropout/stuck/bias/noise apply to whatever channel the window names; a
// GPS jump is only ever a GPS fault). Manifest loading rejects windows
// whose named channel conflicts with the kind's pinned channel.
std::optional<SensorChannel> PinnedChannelOf(SensorFaultKind kind);

// Typed schedule builder. All windows are [start, start + duration). Every
// builder validates its window (FaultSchedule::ValidateWindow plus
// kind-specific parameter ranges) and returns a descriptive error instead
// of silently accepting a malformed one; on error the plan is unchanged.
class SensorFaultPlan {
 public:
  Status AddDropout(SensorChannel sensor, SimTime start, SimDuration duration);
  Status AddStuck(SensorChannel sensor, SimTime start, SimDuration duration);
  Status AddBiasDrift(SensorChannel sensor, SimTime start,
                      SimDuration duration, double rate_per_s);
  Status AddNoiseInflation(SensorChannel sensor, SimTime start,
                           SimDuration duration, double extra_stddev);
  Status AddGpsJump(SimTime start, SimDuration duration, double north_m,
                    double east_m);
  Status AddBaroSpike(SimTime start, SimDuration duration, double magnitude_m,
                      double probability);
  Status AddBatterySag(SimTime start, SimDuration duration,
                       double sag_fraction);

  // Generic validated append — the manifest-loading path (fault windows
  // deserialized by util/fault_plan_io land here). Rejects windows whose
  // scope conflicts with the kind's pinned channel.
  Status AddWindow(const FaultWindowSpec& window);

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  Status Add(SensorFaultKind kind, SensorChannel sensor, SimTime start,
             SimDuration duration, double p0 = 0.0, double p1 = 0.0);

  FaultSchedule schedule_;
};

struct SensorFaultCounters {
  uint64_t dropouts = 0;
  uint64_t stuck_reads = 0;
  uint64_t corrupted_reads = 0;  // Bias/noise/jump/spike-affected reads.
};

// Applies a SensorFaultPlan to sensor reads. Stateful only for stuck-value
// latches (and the noise stream), so it must be consulted on every read of
// the channels it covers. Apply* return false when the read is dropped;
// otherwise they mutate the sample in place.
//
// Precedence per read: dropout beats stuck beats corruption — a stuck
// sensor repeats its latched value exactly (that bit-identity is what the
// estimator's stuck detector keys on), so bias/noise never touch it.
class SensorFaultInjector {
 public:
  SensorFaultInjector(const SensorFaultPlan* plan, const SimClock* clock,
                      uint64_t seed)
      : plan_(plan), clock_(clock), rng_(SplitMix64(seed ^ 0x5ef5u)) {}

  bool ApplyGps(GpsFix* fix);
  bool ApplyImu(ImuSample* sample);
  bool ApplyBaro(double* altitude_m);
  bool ApplyMag(double* heading_rad);

  // Battery has no dropout path — gauges report *something* — only sag.
  double ApplyBatteryFraction(double fraction);

  const SensorFaultCounters& counters() const { return counters_; }
  Rng& checkpoint_rng() { return rng_; }
  // Replay fast path (DESIGN.md §15): a replaying world never consults the
  // injector (the FC's sensor reads are skipped), so the recorded run's
  // final tallies are installed from the replay-log footer to keep the
  // sensor.* metrics — and the metrics digest — identical.
  void RestoreCounters(const SensorFaultCounters& counters) {
    counters_ = counters;
  }

  // Checkpoint/restore: the noise stream, fault counters, and stuck-value
  // latches are the injector's only dynamic state (the plan is config).
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("SFLT");
    rng_.Visit(ar);
    ar.U64(counters_.dropouts);
    ar.U64(counters_.stuck_reads);
    ar.U64(counters_.corrupted_reads);
    ar.Optional(stuck_gps_, [&](GpsFix& fix) { VisitValue(ar, fix); });
    ar.Optional(stuck_imu_, [&](ImuSample& sample) { VisitValue(ar, sample); });
    ar.Optional(stuck_baro_, [&](double& v) { ar.F64(v); });
    ar.Optional(stuck_mag_, [&](double& v) { ar.F64(v); });
    return ar.status();
  }

 private:
  // Returns the active stuck window for |channel|, clearing the latch when
  // no window covers now.
  const FaultWindowSpec* StuckWindow(SensorChannel channel);
  double BiasNow(SensorChannel channel) const;
  double ExtraNoiseStddev(SensorChannel channel) const;
  bool Dropped(SensorChannel channel);

  const SensorFaultPlan* plan_;
  const SimClock* clock_;
  Rng rng_;
  SensorFaultCounters counters_;

  std::optional<GpsFix> stuck_gps_;
  std::optional<ImuSample> stuck_imu_;
  std::optional<double> stuck_baro_;
  std::optional<double> stuck_mag_;
};

}  // namespace androne

#endif  // SRC_HW_SENSOR_FAULTS_H_
