// §6.6 reproduction: the multi-waypoint flight simulation. Three virtual
// drones share one physical flight: an autonomous survey app, an
// interactive remote-control app, and a direct-access user. The flight
// planner routes the drone between their waypoints; each tenant operates in
// turn; a deliberate geofence breach is recovered; the drone returns to
// base; files offload to cloud storage and virtual drones save to the VDR.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/util/logging.h"
#include "src/cloud/energy_model.h"
#include "src/cloud/flight_planner.h"
#include "src/core/drone.h"
#include "src/core/reference_apps.h"

namespace androne {
namespace {

const GeoPoint kBase{43.6084298, -85.8110359, 0};
const GeoPoint kSurveyWaypoint{43.6087619, -85.8104110, 15};
const GeoPoint kInteractiveWaypoint{43.6076409, -85.8154457, 15};
const GeoPoint kDirectWaypoint{43.6090000, -85.8130000, 15};

VirtualDroneDefinition MakeDefinition(const std::string& id,
                                      const std::string& owner,
                                      const GeoPoint& waypoint,
                                      double radius_m,
                                      std::vector<std::string> apps,
                                      double max_duration_s = 240) {
  VirtualDroneDefinition def;
  def.id = id;
  def.owner = owner;
  def.waypoints = {WaypointSpec{waypoint, radius_m}};
  def.max_duration_s = max_duration_s;
  def.energy_allotted_j = 45000;
  def.waypoint_devices = {"camera", "gps", "flight-control"};
  def.apps = std::move(apps);
  JsonObject args;
  if (!def.apps.empty() && def.apps[0] == kSurveyAppPackage) {
    JsonObject survey;
    survey["passes"] = 4;
    args[kSurveyAppPackage] = JsonValue(survey);
  }
  def.app_args = JsonValue(std::move(args));
  return def;
}

void RunSection66() {
  BenchHeader("Section 6.6", "Multi-waypoint flight simulation");

  SimClock clock;
  AnDroneOptions options;
  options.base = kBase;
  options.seed = 66;
  AnDroneSystem system(&clock, options);
  Status boot = system.Boot();
  if (!boot.ok()) {
    std::printf("boot failed: %s\n", boot.ToString().c_str());
    return;
  }

  // App registry (the drone's installed app-store packages).
  RemoteControlApp* rc_app = nullptr;
  system.vdc().RegisterAppFactory(
      kSurveyAppPackage,
      [&system] {
        SurveyApp::Environment env;
        env.send_to_vfc = [&system](const MavlinkFrame& frame) {
          VirtualFlightController* vfc = system.VfcOf("survey");
          if (vfc != nullptr) {
            vfc->HandleClientFrame(frame);
          }
        };
        env.wait_until = [&system](const std::function<bool()>& predicate,
                                   SimDuration timeout) {
          return system.RunClockUntil(predicate, timeout);
        };
        env.position = [&system] {
          return system.physics().truth().position;
        };
        return std::make_unique<SurveyApp>(env);
      },
      kSurveyAppManifest);
  system.vdc().RegisterAppFactory(
      kRemoteControlPackage,
      [&system, &rc_app] {
        auto app = std::make_unique<RemoteControlApp>(
            [&system](const MavlinkFrame& frame) {
              VirtualFlightController* vfc = system.VfcOf("interactive");
              if (vfc != nullptr) {
                vfc->HandleClientFrame(frame);
              }
            });
        rc_app = app.get();
        return app;
      },
      kRemoteControlManifest);

  // Deploy the three tenants.
  auto survey = system.Deploy(
      MakeDefinition("survey", "alice", kSurveyWaypoint, 60,
                     {kSurveyAppPackage}),
      WhitelistTemplate::kGuidedOnly);
  auto interactive = system.Deploy(
      MakeDefinition("interactive", "bob", kInteractiveWaypoint, 40,
                     {kRemoteControlPackage}),
      WhitelistTemplate::kStandard);
  auto direct = system.Deploy(
      MakeDefinition("direct", "carol", kDirectWaypoint, 50, {},
                     /*max_duration_s=*/30),
      WhitelistTemplate::kFull);
  if (!survey.ok() || !interactive.ok() || !direct.ok()) {
    std::printf("deployment failed\n");
    return;
  }
  std::printf("deployed 3 virtual drones (survey, interactive, direct)\n");

  // Script the interactive user: once active, command a short hop that
  // deliberately breaches the 40 m geofence, then finish after recovery.
  struct InteractiveUser : WaypointListener {
    AnDroneSystem* system;
    RemoteControlApp** app;
    bool breached = false;
    void WaypointActive(const WaypointSpec& waypoint) override {
      if (breached) {
        // Control returned after the fence recovery: wrap up.
        if (*app != nullptr) {
          (*app)->UserDone();
        }
        return;
      }
      // Fly 120 m east — far outside the 40 m fence.
      GeoPoint outside = FromNed(waypoint.point, NedPoint{0, 120, 0});
      (*app)->UserFrame(PackMessage(MavMessage{GotoTarget(outside)}));
    }
    void GeofenceBreached() override { breached = true; }
  } user;
  user.system = &system;
  user.app = &rc_app;
  (*interactive)->sdk->RegisterWaypointListener(&user);

  // The direct-access tenant just holds its waypoint for its dwell.

  // Plan the flight.
  EnergyModel energy;
  PlannerConfig pc;
  pc.depot = kBase;
  pc.fleet_size = 1;
  pc.annealing_iterations = 4000;
  FlightPlanner planner(energy, pc);
  std::vector<PlannerJob> jobs;
  struct JobSpec {
    const char* ref;
    GeoPoint waypoint;
    double dwell;
  } specs[] = {
      {"survey", kSurveyWaypoint, 90},
      {"interactive", kInteractiveWaypoint, 90},
      {"direct", kDirectWaypoint, 20},
  };
  int id = 0;
  for (const JobSpec& spec : specs) {
    PlannerJob job;
    job.vdrone_id = id++;
    job.vdrone_ref = spec.ref;
    job.waypoint = spec.waypoint;
    job.service_energy_j = 170.0 * spec.dwell;
    job.service_time_s = spec.dwell;
    jobs.push_back(job);
  }
  auto plan = planner.Plan(jobs);
  if (!plan.ok()) {
    std::printf("planning failed: %s\n", plan.status().ToString().c_str());
    return;
  }
  std::printf("%s", plan->ToString().c_str());

  // Fly it.
  auto report = system.ExecuteRoute(plan->routes[0], jobs);
  if (!report.ok()) {
    std::printf("flight failed: %s\n", report.status().ToString().c_str());
    return;
  }
  std::printf("\nFlight event log:\n");
  for (const std::string& event : report->events) {
    std::printf("  %s\n", event.c_str());
  }

  std::printf("\nResults:\n");
  auto* app = static_cast<SurveyApp*>((*survey)->apps[0].get());
  std::printf("  survey app: %d legs flown, %d frames captured\n",
              app->legs_flown(), app->frames_captured());
  std::printf("  interactive: geofence breach %s, %llu frames relayed\n",
              user.breached ? "handled (recovered to LOITER)" : "NOT seen",
              static_cast<unsigned long long>(
                  rc_app != nullptr ? rc_app->frames_relayed() : 0));
  std::printf("  cloud files for alice: %zu\n",
              system.cloud_storage().ListUserFiles("alice").size());
  std::printf("  VDR entries: %zu\n", system.vdr().List().size());
  std::printf("  flight time: %.0f s, battery used: %.0f kJ (%.0f%% of "
              "pack)\n",
              report->flight_time_s, report->battery_used_j / 1000.0,
              100.0 * report->battery_used_j /
                  system.battery().capacity_joules());
  AedResult aed = AnalyzeAttitudeDivergence(system.flight().flight_log());
  std::printf("  AED analyzer: %s (worst divergence %.1f deg)\n",
              aed.unstable ? "UNSTABLE" : "within normal divergence",
              aed.worst_divergence_deg);
  BenchNote("paper §6.6: all three tenants operated in turn, the geofence "
            "breach was handled, and the drone returned to base");
}

}  // namespace
}  // namespace androne

int main() {
  androne::SetMinLogLevel(androne::LogLevel::kWarning);
  androne::RunSection66();
  return 0;
}
