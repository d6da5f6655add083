// Fixed-seed snapshot sources shared by the snapshot golden and the
// checkpoint corruption tests: a booted AnDroneSystem with one deployed
// tenant (optionally flown part-way through its mission) and the canonical
// small fleet world those tests capture templates and checkpoints from.
#ifndef TESTS_SNAPSHOT_FIXTURES_H_
#define TESTS_SNAPSHOT_FIXTURES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cloud/energy_model.h"
#include "src/cloud/flight_planner.h"
#include "src/core/drone.h"
#include "src/exec/fleet_world.h"
#include "src/snapshot/snapshot.h"
#include "src/util/geo.h"
#include "src/util/sim_clock.h"

namespace androne {
namespace snapshot_fixtures {

inline const GeoPoint kBase{43.6084298, -85.8110359, 0};
inline constexpr uint64_t kSystemSeed = 0x5eed'5a7e;
inline constexpr uint64_t kWorldSeed = 0x0c0f'fee5;
// A checkpoint header: magic u64, version u32, seed u64, fingerprint u64,
// sim time i64.
inline constexpr size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;
// Mission pulses (100 ms each) before the mid-flight capture.
inline constexpr int kMidFlightPulses = 150;

inline GeoPoint TenantWaypoint() {
  return FromNed(kBase, NedPoint{80, -60, -15});
}

struct TestSystem {
  SimClock clock;
  std::unique_ptr<AnDroneSystem> system;
};

// Boot plus one deployed tenant: the deterministic construction a saved
// system and every restore target share. |warmup| = false boots the
// structure only, as a restore target does. A non-null |sensor_faults|
// (owned by the caller) gives the system a sensor-fault injector.
inline Status BootSystem(TestSystem& ts, bool warmup = true,
                         const SensorFaultPlan* sensor_faults = nullptr) {
  AnDroneOptions options;
  options.base = kBase;
  options.seed = kSystemSeed;
  options.boot_warmup = warmup;
  options.sensor_faults = sensor_faults;
  ts.system = std::make_unique<AnDroneSystem>(&ts.clock, options);
  RETURN_IF_ERROR(ts.system->Boot());
  VirtualDroneDefinition def;
  def.id = "vd-0";
  def.owner = "tenant-0";
  def.waypoints = {WaypointSpec{TenantWaypoint(), 60}};
  def.max_duration_s = 30;
  def.energy_allotted_j = 45000;
  def.waypoint_devices = {"camera", "gps", "flight-control"};
  return ts.system->Deploy(def, WhitelistTemplate::kStandard).status();
}

// Plans the tenant's route and drives the mission for kMidFlightPulses
// pulses, leaving the drone in the air.
inline Status FlyMidway(TestSystem& ts) {
  PlannerJob job;
  job.vdrone_ref = "vd-0";
  job.waypoint = TenantWaypoint();
  job.service_energy_j = 170.0 * 20;
  job.service_time_s = 20;
  PlannerConfig pc;
  pc.depot = kBase;
  pc.annealing_iterations = 50;
  ASSIGN_OR_RETURN(FlightPlan plan, FlightPlanner(EnergyModel(), pc).Plan({job}));
  if (plan.routes.empty()) {
    return InternalError("planner produced no route");
  }
  int pulses = 0;
  ts.system->SetMissionPulse([&pulses] { return ++pulses < kMidFlightPulses; });
  StatusOr<FlightExecutionReport> flight =
      ts.system->ExecuteRoute(plan.routes[0], {job});
  ts.system->SetMissionPulse(nullptr);
  if (flight.status().code() != StatusCode::kCancelled ||
      !ts.system->mission_progress().InFlight()) {
    return InternalError("the mission did not stop mid-flight");
  }
  return OkStatus();
}

// The system's state sections followed by its timer table.
inline std::string SaveSystemBlob(const AnDroneSystem& system) {
  SnapshotWriter w;
  TimerRegistry timers;
  system.SaveState(w, timers);
  timers.Persist(w);
  return w.Take();
}

// The (key, deadline) entries of the timer table that closes |blob|, or
// none when the bytes after its last "TIMR" tag are not exactly one table.
inline std::vector<std::pair<std::string, SimTime>> TimerTable(
    const std::string& blob) {
  const size_t at = blob.rfind("TIMR");
  if (at == std::string::npos) {
    return {};
  }
  SnapshotReader r(std::string_view(blob).substr(at));
  uint64_t count = 0;
  if (!r.Section("TIMR").ok() || !r.U64(&count).ok()) {
    return {};
  }
  std::vector<std::pair<std::string, SimTime>> entries;
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    SimTime when = 0;
    if (!r.Str(&key).ok() || !r.I64(&when).ok()) {
      return {};
    }
    entries.emplace_back(std::move(key), when);
  }
  return r.remaining() == 0 ? entries
                            : std::vector<std::pair<std::string, SimTime>>{};
}

// A small untraced two-tenant world with phase-boundary checkpoints.
inline FleetWorldConfig WorldConfig() {
  FleetWorldConfig config;
  config.tenants = 2;
  config.dwell_s = 5;
  config.annealing_iterations = 100;
  config.checkpoint.period_s = 0;
  config.checkpoint.at_phase_boundaries = true;
  return config;
}

inline WorldContext WorldCtx() {
  WorldContext ctx;
  ctx.index = 0;
  ctx.seed = kWorldSeed;
  return ctx;
}

}  // namespace snapshot_fixtures
}  // namespace androne

#endif  // TESTS_SNAPSHOT_FIXTURES_H_
