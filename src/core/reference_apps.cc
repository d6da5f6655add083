#include "src/core/reference_apps.h"

#include "src/services/device_services.h"
#include "src/util/logging.h"

namespace androne {

SurveyApp::SurveyApp(Environment env)
    : AndroneApp(kSurveyAppPackage, 0), env_(std::move(env)) {}

Status SurveyApp::CaptureFrame() {
  if (!camera_connected_) {
    ASSIGN_OR_RETURN(camera_, SmGetService(proc(), kCameraServiceName));
    Parcel req;
    RETURN_IF_ERROR(proc()->Transact(camera_, kCamConnect, req).status());
    camera_connected_ = true;
  }
  Parcel req;
  RETURN_IF_ERROR(proc()->Transact(camera_, kCamCapture, req).status());
  ++frames_captured_;
  return OkStatus();
}

void SurveyApp::WaypointActive(const WaypointSpec& waypoint) {
  abort_requested_ = false;
  int passes = static_cast<int>(args().GetIntOr("passes", 4));
  double spacing = args().GetNumberOr("pass-spacing-m", 8.0);
  double leg_length = waypoint.max_radius_m * 0.6;

  // Lawn-mower pattern centered on the waypoint: east-west legs stepped
  // north, a frame at each leg end.
  for (int leg = 0; leg < passes && !abort_requested_; ++leg) {
    double north = (leg - passes / 2.0) * spacing;
    double east = (leg % 2 == 0) ? leg_length : -leg_length;
    GeoPoint target = FromNed(
        waypoint.point, NedPoint{north, east, 0.0});
    env_.send_to_vfc(PackMessage(MavMessage{GotoTarget(target)}));
    bool arrived = env_.wait_until(
        [this, target] {
          return Distance3dMeters(env_.position(), target) < 3.0;
        },
        Seconds(60));
    if (!arrived) {
      break;
    }
    ++legs_flown_;
    (void)CaptureFrame();
  }

  // Geo-referenced survey report for the user.
  JsonObject report;
  report["frames"] = frames_captured_;
  report["legs"] = legs_flown_;
  report["center-lat"] = waypoint.point.latitude_deg;
  report["center-lon"] = waypoint.point.longitude_deg;
  std::string path = "/data/data/" + package() + "/survey_report.json";
  container()->WriteFile(path, JsonValue(std::move(report)).Dump());
  (void)sdk()->MarkFileForUser(path);
  sdk()->WaypointCompleted();
}

void SurveyApp::WaypointInactive(const WaypointSpec& waypoint) {
  (void)waypoint;
  if (camera_connected_) {
    Parcel req;
    (void)proc()->Transact(camera_, kCamDisconnect, req);
    camera_connected_ = false;
  }
}

void SurveyApp::LowEnergyWarning(double remaining_j) {
  (void)remaining_j;
  abort_requested_ = true;  // Wrap up the current leg and finish.
}

JsonValue SurveyApp::OnSaveInstanceState() {
  JsonObject state;
  state["frames"] = frames_captured_;
  state["legs"] = legs_flown_;
  return JsonValue(std::move(state));
}

void SurveyApp::OnRestoreInstanceState(const JsonValue& state) {
  frames_captured_ = static_cast<int>(state.GetIntOr("frames", 0));
  legs_flown_ = static_cast<int>(state.GetIntOr("legs", 0));
}

RemoteControlApp::RemoteControlApp(FrameSink send_to_vfc)
    : AndroneApp(kRemoteControlPackage, 0),
      send_to_vfc_(std::move(send_to_vfc)) {}

void RemoteControlApp::WaypointActive(const WaypointSpec& waypoint) {
  (void)waypoint;
  active_ = true;
  ALOG(kInfo, "app") << package() << ": user has flight control at "
                     << waypoint.point.ToString();
}

void RemoteControlApp::WaypointInactive(const WaypointSpec& waypoint) {
  (void)waypoint;
  active_ = false;
}

void RemoteControlApp::UserFrame(const MavlinkFrame& frame) {
  if (!active_) {
    return;  // Paper: commands outside the tenancy are not relayed.
  }
  ++frames_relayed_;
  send_to_vfc_(frame);
}

void RemoteControlApp::UserDone() {
  if (active_) {
    sdk()->WaypointCompleted();
  }
}

}  // namespace androne
