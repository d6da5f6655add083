// Sensor-fault sweep: the onboard robustness envelope as sensors degrade.
// Flies the same guided mission under swept sensor faults — GPS jump
// magnitude, barometer spike probability, and a stuck-IMU + deadline-miss
// storm — and reports what the estimator and safety supervisor did about
// it: worst estimate error, sensor exclusions, override engagement, and
// whether the mission (or the supervised landing) completed. The sensor
// twin of bench/fault_sweep's link sweep; both write rows into
// BENCH_fault_sweep.json via scripts/ci.sh.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/flight/sitl.h"
#include "src/util/json.h"

namespace androne {
namespace {

constexpr uint64_t kSeed = 2026;
const GeoPoint kBase{43.6084298, -85.8110359, 0.0};
const GeoPoint kWaypointB{43.6076409, -85.8154457, 15.0};

JsonArray g_rows;

struct MissionOutcome {
  bool completed = false;       // Reached the waypoint (possibly after hold).
  bool overrode = false;        // Safety supervisor engaged.
  bool landed_safely = false;   // Supervisor-controlled landing, in envelope.
  double worst_est_error_m = 0;
  double worst_alt_error_m = 0;
  double worst_tilt_rad = 0;
  uint64_t sensor_rejects = 0;
};

// Shared mission shell: warm up, take off to 15 m, head for waypoint B,
// let |inject| script the faults once cruising, then observe.
template <typename InjectFn>
MissionOutcome FlyMission(uint64_t seed, InjectFn inject,
                          bool expect_recovery_landing) {
  SimClock clock;
  SitlDrone drone(&clock, kBase, seed);
  clock.RunFor(Seconds(2));
  MissionOutcome out;

  drone.SetModeCmd(CopterMode::kGuided);
  drone.ArmCmd();
  drone.TakeoffCmd(15.0);
  if (!drone.RunUntil(
          [&] {
            return drone.physics().truth().position.altitude_m > 14.0;
          },
          Seconds(40))) {
    return out;
  }
  drone.GotoCmd(kWaypointB);
  clock.RunFor(Seconds(5));
  inject(drone, clock);

  SimTime deadline = clock.now() + Seconds(180);
  while (clock.now() < deadline) {
    clock.RunFor(Millis(100));
    const DroneGroundTruth& truth = drone.physics().truth();
    out.worst_est_error_m = std::max(
        out.worst_est_error_m,
        HaversineMeters(drone.controller().position_estimate(),
                        truth.position));
    out.worst_alt_error_m =
        std::max(out.worst_alt_error_m,
                 std::fabs(drone.controller()
                               .estimator()
                               .position()
                               .position.altitude_m -
                           truth.position.altitude_m));
    out.worst_tilt_rad = std::max(
        out.worst_tilt_rad,
        std::max(std::fabs(truth.roll_rad), std::fabs(truth.pitch_rad)));
    out.overrode |= drone.controller().safety().overriding();
    if (expect_recovery_landing) {
      if (!truth.airborne && !drone.controller().armed()) {
        out.landed_safely = out.worst_tilt_rad <
                            drone.controller().safety().envelope().max_tilt_rad;
        break;
      }
    } else {
      // Re-assert the mission whenever control is back with the complex
      // stack (as the cloud planner would at 1 Hz).
      if (!drone.controller().safety().overriding() &&
          !drone.controller().gps_glitch() &&
          drone.controller().mode() != CopterMode::kGuided) {
        drone.SetModeCmd(CopterMode::kGuided);
        drone.GotoCmd(kWaypointB);
      }
      if (drone.DistanceTo(kWaypointB) < 3.0) {
        out.completed = true;
        break;
      }
    }
  }
  const Estimator& est = drone.controller().estimator();
  for (int s = 0; s < kNumEstimatorSensors; ++s) {
    out.sensor_rejects +=
        est.health(static_cast<EstimatorSensor>(s)).rejected;
  }
  return out;
}

void Report(const char* sweep, const char* label, double x,
            const MissionOutcome& o) {
  std::printf("  %-22s %-9s override=%d  est err max %6.1f m  "
              "alt err max %5.2f m  tilt max %4.2f rad  rejects %llu\n",
              label,
              o.landed_safely ? "landed"
                              : (o.completed ? "completed" : "DNF"),
              o.overrode, o.worst_est_error_m, o.worst_alt_error_m,
              o.worst_tilt_rad,
              static_cast<unsigned long long>(o.sensor_rejects));
  JsonObject row;
  row["sweep"] = sweep;
  row["x"] = x;
  row["completed"] = o.completed;
  row["overrode"] = o.overrode;
  row["landed_safely"] = o.landed_safely;
  row["worst_est_error_m"] = o.worst_est_error_m;
  row["worst_alt_error_m"] = o.worst_alt_error_m;
  row["worst_tilt_rad"] = o.worst_tilt_rad;
  row["sensor_rejects"] = static_cast<double>(o.sensor_rejects);
  g_rows.emplace_back(std::move(row));
}

void SweepGpsJump() {
  std::printf("\nGPS jump magnitude (8 s window mid-cruise):\n");
  const double jumps_m[] = {0.0, 20.0, 60.0, 120.0};
  for (double jump : jumps_m) {
    MissionOutcome o = FlyMission(
        kSeed,
        [jump](SitlDrone& drone, SimClock& clock) {
          if (jump > 0) {
            drone.sensor_faults().AddGpsJump(clock.now(), Seconds(8),
                                             jump * 0.8, jump * 0.6);
          }
        },
        /*expect_recovery_landing=*/false);
    char label[32];
    std::snprintf(label, sizeof(label), "jump=%.0fm", jump);
    Report("gps_jump", label, jump, o);
  }
}

void SweepBaroSpikes() {
  std::printf("\nbarometer spikes (±25 m, per-read probability, 30 s):\n");
  const double probs[] = {0.0, 0.1, 0.3, 0.6};
  for (double p : probs) {
    MissionOutcome o = FlyMission(
        kSeed + 1,
        [p](SitlDrone& drone, SimClock& clock) {
          if (p > 0) {
            drone.sensor_faults().AddBaroSpike(clock.now(), Seconds(30), 25.0,
                                               p);
          }
        },
        /*expect_recovery_landing=*/false);
    char label[32];
    std::snprintf(label, sizeof(label), "spike p=%.1f", p);
    Report("baro_spike", label, p, o);
  }
}

void SweepDeadlineStorm() {
  std::printf(
      "\nstuck IMU + deadline-miss storm (recovery landing expected):\n");
  const double miss_rates[] = {0.25, 0.5};
  for (double rate : miss_rates) {
    MissionOutcome o = FlyMission(
        kSeed + 2,
        [rate](SitlDrone& drone, SimClock& clock) {
          SafetyEnvelope env = drone.controller().safety().envelope();
          env.level_hold_grace = Seconds(1);
          drone.controller().safety().Configure(env);
          drone.sensor_faults().AddStuck(SensorChannel::kImu, clock.now(),
                                         Seconds(300));
          // Deterministic miss pattern at the requested rate.
          auto tick = std::make_shared<int>(0);
          int period = static_cast<int>(1.0 / rate);
          drone.controller().SetLatencySource([tick, period] {
            return (++*tick % period == 0) ? 4000.0 : 100.0;
          });
        },
        /*expect_recovery_landing=*/true);
    char label[32];
    std::snprintf(label, sizeof(label), "miss=%.0f%%", rate * 100);
    Report("deadline_storm", label, rate, o);
  }
}

void Run(const char* json_path) {
  BenchHeader("Sensor-fault sweep",
              "mission outcomes as onboard sensors degrade");
  BenchNote("estimator: innovation gating + health ladder; supervisor: "
            "level-hold -> descend -> cutoff recovery ladder");
  SweepGpsJump();
  SweepBaroSpikes();
  SweepDeadlineStorm();
  std::printf("\n");
  if (json_path != nullptr) {
    JsonObject doc;
    doc["bench"] = "sensor_fault_sweep";
    doc["rows"] = JsonValue(g_rows);
    WriteJsonDoc(json_path, doc);
  }
}

}  // namespace
}  // namespace androne

int main(int argc, char** argv) {
  androne::Run(androne::JsonPathArg(argc, argv));
  return 0;
}
