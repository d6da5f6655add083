// Direct access via the AnDrone command-line utility (paper §5: "for
// advanced end users, who may not be using an app, AnDrone's SDK
// functionality is also made available to them via a command line
// utility"). A scripted user session drives the shell against a live
// tenancy: querying allotments and status, steering the drone through the
// VFC, staging a file, and completing the waypoint.
//
//   ./examples/direct_access_cli
#include <cstdio>

#include "src/cloud/energy_model.h"
#include "src/cloud/flight_planner.h"
#include "src/core/cli.h"
#include "src/core/drone.h"
#include "src/util/logging.h"

using namespace androne;

namespace {

const GeoPoint kBase{51.5074, -0.1278, 0};
const GeoPoint kWorkSite{51.5080, -0.1270, 15};

void RunCmd(AndroneShell& shell, const std::string& command) {
  std::printf("androne> %s\n%s\n", command.c_str(),
              shell.Execute(command).c_str());
}

}  // namespace

int main() {
  SetMinLogLevel(LogLevel::kWarning);
  std::printf("== Direct access with the AnDrone CLI ==\n\n");

  SimClock clock;
  AnDroneOptions options;
  options.base = kBase;
  AnDroneSystem drone(&clock, options);
  if (Status status = drone.Boot(); !status.ok()) {
    std::printf("boot failed: %s\n", status.ToString().c_str());
    return 1;
  }

  VirtualDroneDefinition def;
  def.id = "direct";
  def.owner = "operator";
  def.waypoints = {WaypointSpec{kWorkSite, 60}};
  def.max_duration_s = 300;
  def.energy_allotted_j = 45000;
  def.waypoint_devices = {"camera", "gps", "flight-control"};
  auto deployed = drone.Deploy(def, WhitelistTemplate::kStandard);
  if (!deployed.ok()) {
    std::printf("deploy failed: %s\n", deployed.status().ToString().c_str());
    return 1;
  }

  AndroneShell shell((*deployed)->sdk.get(), &(*deployed)->definition);

  // Pre-flight: the user inspects the rental from their terminal.
  RunCmd(shell, "help");
  RunCmd(shell, "waypoints");
  RunCmd(shell, "devices");
  RunCmd(shell, "status");

  // Scripted session once the tenancy starts.
  struct Session : WaypointListener {
    AnDroneSystem* drone;
    AndroneShell* shell;
    VirtualDroneInstance* vd;
    void WaypointActive(const WaypointSpec& waypoint) override {
      RunCmd(*shell, "status");
      RunCmd(*shell, "energy-left");
      RunCmd(*shell, "time-left");
      RunCmd(*shell, "fc-address");
      // Steer via the VFC (what a GCS pointed at fc-address would do).
      GeoPoint spot = FromNed(waypoint.point, NedPoint{25, 10, 0});
      drone->VfcOf("direct")->HandleClientFrame(
          PackMessage(MavMessage{GotoTarget(spot)}));
      drone->RunClockUntil(
          [&] {
            return Distance3dMeters(drone->physics().truth().position, spot) <
                   3.0;
          },
          Seconds(60));
      std::printf("  (flew to the inspection point)\n");
      vd->container->WriteFile("/data/inspection/notes.txt",
                               "north facade OK; crane pad flooded");
      RunCmd(*shell, "mark-file /data/inspection/notes.txt");
      RunCmd(*shell, "events 3");
      RunCmd(*shell, "complete");
    }

  } session;
  session.drone = &drone;
  session.shell = &shell;
  session.vd = *deployed;
  (*deployed)->sdk->RegisterWaypointListener(&session);

  EnergyModel energy;
  PlannerConfig pc;
  pc.depot = kBase;
  pc.annealing_iterations = 500;
  FlightPlanner planner(energy, pc);
  PlannerJob job;
  job.vdrone_ref = "direct";
  job.waypoint = kWorkSite;
  job.service_energy_j = 170.0 * 60;
  job.service_time_s = 60;
  auto plan = planner.Plan({job});
  if (!plan.ok()) {
    std::printf("planning failed\n");
    return 1;
  }
  auto report = drone.ExecuteRoute(plan->routes[0], {job});
  if (!report.ok()) {
    std::printf("flight failed: %s\n", report.status().ToString().c_str());
    return 1;
  }

  RunCmd(shell, "status");
  RunCmd(shell, "events");
  auto files = drone.cloud_storage().ListUserFiles("operator");
  std::printf("operator's cloud files: %zu\n", files.size());
  return files.size() == 1 ? 0 : 1;
}
