// Geofenced direct access over cellular — the paper's advanced usage model.
//
// A power user rents direct (no-app) access to a virtual drone with the
// *full* command whitelist and flies it manually from a ground station over
// a simulated LTE link (VPN-tunneled MAVLink, §6.5 latencies). The drone is
// geofenced to the rented volume: when the user pushes past the fence,
// AnDrone's recovery sequence kicks in — the breach is reported, commands
// are refused, the drone is guided back inside, parked in LOITER, and
// control is returned — without ever interrupting the flight.
//
//   ./examples/geofence_patrol
#include <cstdio>

#include "src/cloud/energy_model.h"
#include "src/cloud/flight_planner.h"
#include "src/core/drone.h"
#include "src/net/channel.h"
#include "src/util/logging.h"

using namespace androne;

namespace {

const GeoPoint kBase{37.4220, -122.0840, 0};
const GeoPoint kPatrolPoint{37.4228, -122.0835, 15};

}  // namespace

int main() {
  SetMinLogLevel(LogLevel::kWarning);
  std::printf("== Geofenced direct access over LTE ==\n\n");

  SimClock clock;
  AnDroneOptions options;
  options.base = kBase;
  AnDroneSystem drone(&clock, options);
  if (Status status = drone.Boot(); !status.ok()) {
    std::printf("boot failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // Direct-access tenant: no apps, full whitelist, 50 m geofence.
  VirtualDroneDefinition def;
  def.id = "patrol";
  def.owner = "poweruser";
  def.waypoints = {WaypointSpec{kPatrolPoint, 50}};
  def.max_duration_s = 180;
  def.energy_allotted_j = 45000;
  def.waypoint_devices = {"camera", "gps", "flight-control"};
  auto deployed = drone.Deploy(def, WhitelistTemplate::kFull);
  if (!deployed.ok()) {
    std::printf("deploy failed: %s\n", deployed.status().ToString().c_str());
    return 1;
  }

  // Ground station <-> VFC over VPN-tunneled cellular (the §6.5 path).
  CellularLteModel lte;
  NetworkChannel uplink(&clock, &lte, 7);
  NetworkChannel downlink(&clock, &lte, 8);
  VpnTunnel gcs_tx(&uplink, 1001), drone_rx(&uplink, 1001);
  VpnTunnel drone_tx(&downlink, 1001), gcs_rx(&downlink, 1001);

  VirtualFlightController* vfc = drone.VfcOf("patrol");
  MavlinkParser uplink_parser;
  drone_rx.SetReceiver([&](const std::vector<uint8_t>& datagram) {
    uplink_parser.Feed(datagram);
    for (const MavlinkFrame& frame : uplink_parser.TakeFrames()) {
      vfc->HandleClientFrame(frame);
    }
  });
  vfc->SetClientSink([&](const MavlinkFrame& frame) {
    drone_tx.Send(EncodeFrame(frame));
  });
  int telemetry_frames = 0;
  std::string last_status;
  MavlinkParser downlink_parser;
  gcs_rx.SetReceiver([&](const std::vector<uint8_t>& datagram) {
    downlink_parser.Feed(datagram);
    for (const MavlinkFrame& frame : downlink_parser.TakeFrames()) {
      ++telemetry_frames;
      auto message = UnpackMessage(frame);
      if (message.ok() && std::holds_alternative<StatusText>(*message)) {
        last_status = std::get<StatusText>(*message).text;
        std::printf("  [gcs] STATUSTEXT: %s\n", last_status.c_str());
      }
    }
  });
  auto gcs_send = [&](const MavMessage& message) {
    gcs_tx.Send(EncodeFrame(PackMessage(message)));
  };

  bool breached = false, recovered = false;

  // Plan a single-stop flight and fly to the rented volume.
  EnergyModel energy;
  PlannerConfig pc;
  pc.depot = kBase;
  pc.annealing_iterations = 500;
  FlightPlanner planner(energy, pc);
  PlannerJob job;
  job.vdrone_ref = "patrol";
  job.waypoint = kPatrolPoint;
  job.service_energy_j = 170.0 * 60;
  job.service_time_s = 60;
  auto plan = planner.Plan({job});
  if (!plan.ok()) {
    std::printf("planning failed\n");
    return 1;
  }

  // Script the user's session once control arrives: a legal move, then a
  // deliberate fence bust, then done.
  struct UserSession : WaypointListener {
    AnDroneSystem* drone;
    std::function<void(const MavMessage&)> send;
    bool* breached;
    int phase = 0;
    void WaypointActive(const WaypointSpec& waypoint) override {
      if (phase == 0) {
        phase = 1;
        // Legal: hop 20 m north inside the 50 m fence.
        GeoPoint inside = FromNed(waypoint.point, NedPoint{20, 0, 0});
        send(MavMessage{GotoTarget(inside)});
        drone->RunClockUntil(
            [&] {
              return Distance3dMeters(drone->physics().truth().position,
                                      inside) < 3.0;
            },
            Seconds(60));
        std::printf("  [user] legal hop inside the fence complete\n");
        // Now push 150 m east, well past the fence.
        GeoPoint outside = FromNed(waypoint.point, NedPoint{0, 150, 0});
        send(MavMessage{GotoTarget(outside)});
        std::printf("  [user] pushing past the fence...\n");
      } else if (*breached) {
        *recovered = true;
        std::printf("  [user] control returned after recovery; done.\n");
        if (drone->vdc().Find("patrol").ok()) {
          (*drone->vdc().Find("patrol"))->sdk->WaypointCompleted();
        }
      }
    }
    void GeofenceBreached() override {
      *breached = true;
      std::printf("  [user] geofence breach notification received\n");
    }
    bool* recovered;
  } session;
  session.drone = &drone;
  session.send = gcs_send;
  session.breached = &breached;
  session.recovered = &recovered;
  (*deployed)->sdk->RegisterWaypointListener(&session);

  auto report = drone.ExecuteRoute(plan->routes[0], {job});
  if (!report.ok()) {
    std::printf("flight failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& event : report->events) {
    std::printf("  %s\n", event.c_str());
  }

  std::printf("\nsession summary:\n");
  std::printf("  telemetry frames over LTE: %d (uplink lost %llu, downlink "
              "lost %llu)\n",
              telemetry_frames,
              static_cast<unsigned long long>(uplink.lost()),
              static_cast<unsigned long long>(downlink.lost()));
  std::printf("  mean downlink latency: %.0f ms\n",
              downlink.latency_us().mean() / 1000.0);
  std::printf("  geofence: breach %s, recovery %s\n",
              breached ? "detected" : "NOT detected",
              recovered ? "confirmed (control returned)" : "not confirmed");
  std::printf("  flight: %.0f s, %.0f kJ\n", report->flight_time_s,
              report->battery_used_j / 1000.0);
  return breached && recovered ? 0 : 1;
}
