#include <gtest/gtest.h>

#include <cmath>

#include "src/cloud/energy_model.h"
#include "src/cloud/flight_planner.h"
#include "src/core/drone.h"
#include "src/core/sdk.h"
#include "src/core/vdc.h"
#include "src/services/device_services.h"
#include "src/services/permissions.h"

namespace androne {
namespace {

const GeoPoint kBase{43.6084298, -85.8110359, 0};
const GeoPoint kWaypointA{43.6084298, -85.8110359, 15};
const GeoPoint kWaypointB{43.6076409, -85.8154457, 15};

const char kSurveyManifest[] = R"(
<androne-manifest package="com.example.survey">
  <uses-permission name="camera" type="waypoint"/>
  <uses-permission name="flight-control" type="waypoint"/>
  <argument name="passes" type="number" required="false"/>
</androne-manifest>)";

const char kTrafficManifest[] = R"(
<androne-manifest package="com.example.traffic">
  <uses-permission name="camera" type="continuous"/>
  <uses-permission name="gps" type="continuous"/>
</androne-manifest>)";

// A well-behaved survey app: on waypointActive it captures frames through
// the shared CameraService, writes a report, marks it for the user, and
// completes the waypoint. It releases the camera on waypointInactive.
class SurveyApp : public AndroneApp {
 public:
  SurveyApp() : AndroneApp("com.example.survey", 0) {}

  int frames_captured = 0;
  int activations = 0;
  bool saw_inactive = false;

  void WaypointActive(const WaypointSpec& waypoint) override {
    (void)waypoint;
    ++activations;
    auto camera = SmGetService(proc(), kCameraServiceName);
    if (!camera.ok()) {
      return;
    }
    camera_handle_ = *camera;
    Parcel req;
    if (!proc()->Transact(camera_handle_, kCamConnect, req).ok()) {
      return;
    }
    int passes = static_cast<int>(args().GetIntOr("passes", 3));
    for (int i = 0; i < passes; ++i) {
      auto frame = proc()->Transact(camera_handle_, kCamCapture, req);
      if (frame.ok()) {
        ++frames_captured;
      }
    }
    container()->WriteFile("/data/data/com.example.survey/report.json",
                           "{\"frames\":" + std::to_string(frames_captured) +
                               "}");
    (void)sdk()->MarkFileForUser(
        "/data/data/com.example.survey/report.json");
    sdk()->WaypointCompleted();
  }

  void WaypointInactive(const WaypointSpec& waypoint) override {
    (void)waypoint;
    saw_inactive = true;
    Parcel req;
    (void)proc()->Transact(camera_handle_, kCamDisconnect, req);
  }

 protected:
  JsonValue OnSaveInstanceState() override {
    JsonObject state;
    state["frames"] = frames_captured;
    return JsonValue(std::move(state));
  }
  void OnRestoreInstanceState(const JsonValue& state) override {
    frames_captured = static_cast<int>(state.GetIntOr("frames", 0));
  }

 private:
  BinderHandle camera_handle_ = 0;
};

// A rogue app that keeps the camera connected after revocation.
class RogueApp : public AndroneApp {
 public:
  RogueApp() : AndroneApp("com.example.rogue", 0) {}

  void WaypointActive(const WaypointSpec&) override {
    auto camera = SmGetService(proc(), kCameraServiceName);
    if (camera.ok()) {
      Parcel req;
      (void)proc()->Transact(*camera, kCamConnect, req);
    }
  }
  // Deliberately ignores WaypointInactive: never disconnects.
};

const char kRogueManifest[] = R"(
<androne-manifest package="com.example.rogue">
  <uses-permission name="camera" type="waypoint"/>
</androne-manifest>)";

VirtualDroneDefinition SurveyDefinition(const std::string& id) {
  VirtualDroneDefinition def;
  def.id = id;
  def.owner = "alice";
  def.waypoints = {WaypointSpec{kWaypointA, 40}};
  def.max_duration_s = 300;
  def.energy_allotted_j = 45000;
  def.waypoint_devices = {"camera", "flight-control"};
  def.apps = {"com.example.survey"};
  JsonObject args;
  JsonObject survey;
  survey["passes"] = 4;
  args["com.example.survey"] = JsonValue(survey);
  def.app_args = JsonValue(std::move(args));
  return def;
}

class DroneFixture : public ::testing::Test {
 protected:
  DroneFixture() : system_(&clock_, MakeOptions()) {
    Status boot = system_.Boot();
    EXPECT_TRUE(boot.ok()) << boot;
    system_.vdc().RegisterAppFactory(
        "com.example.survey", [] { return std::make_unique<SurveyApp>(); },
        kSurveyManifest);
    system_.vdc().RegisterAppFactory(
        "com.example.rogue", [] { return std::make_unique<RogueApp>(); },
        kRogueManifest);
  }

  static AnDroneOptions MakeOptions() {
    AnDroneOptions options;
    options.base = kBase;
    options.seed = 11;
    return options;
  }

  SimClock clock_;
  AnDroneSystem system_;
};

TEST_F(DroneFixture, BootBringsUpTheArchitecture) {
  EXPECT_TRUE(system_.runtime().FindByName("device").ok());
  EXPECT_TRUE(system_.runtime().FindByName("flight").ok());
  // Flight controller reads the device container's sensor snapshot; its
  // estimator should have a GPS fix after warmup.
  EXPECT_TRUE(system_.flight().estimator().position().valid);
  // Memory matches the base + dev/flight configuration band.
  EXPECT_NEAR(system_.runtime().MemoryUsageMb(), 245, 25);
}

TEST_F(DroneFixture, DeployCreatesContainerAppsAndVfc) {
  auto vd = system_.Deploy(SurveyDefinition("vd-1"));
  ASSERT_TRUE(vd.ok()) << vd.status();
  EXPECT_EQ((*vd)->container->state(), ContainerState::kRunning);
  EXPECT_EQ((*vd)->apps.size(), 1u);
  EXPECT_NE(system_.VfcOf("vd-1"), nullptr);
  // Shared services visible in the tenant's namespace.
  EXPECT_TRUE((*vd)->stack.service_manager->HasService(kCameraServiceName));
}

TEST_F(DroneFixture, DeployUnknownAppFails) {
  VirtualDroneDefinition def = SurveyDefinition("vd-x");
  def.apps = {"com.example.unregistered"};
  def.app_args = JsonValue(JsonObject{});
  EXPECT_EQ(system_.Deploy(def).status().code(), StatusCode::kNotFound);
}

TEST_F(DroneFixture, DevicePolicyFollowsWaypointState) {
  auto vd = system_.Deploy(SurveyDefinition("vd-1"));
  ASSERT_TRUE(vd.ok());
  ContainerId cid = (*vd)->container->id();
  // Before the waypoint: no camera.
  EXPECT_FALSE(system_.vdc().AllowsDevicePermission(cid, kPermCamera));
  EXPECT_FALSE(system_.vdc().AllowsFlightControl("vd-1"));
  // At the waypoint: both (the survey app auto-completes, so check state
  // inside the notification via a probe listener instead).
  ASSERT_TRUE(system_.vdc().NotifyWaypointReached("vd-1", 0).ok());
  // The app already completed and requested tenancy end, but access stays
  // until NotifyWaypointLeft.
  EXPECT_TRUE(system_.vdc().AllowsDevicePermission(cid, kPermCamera));
  EXPECT_TRUE(system_.vdc().AllowsFlightControl("vd-1"));
  ASSERT_TRUE(system_.vdc()
                  .NotifyWaypointLeft("vd-1", TenancyEndReason::kCompleted)
                  .ok());
  EXPECT_FALSE(system_.vdc().AllowsDevicePermission(cid, kPermCamera));
  EXPECT_FALSE(system_.vdc().AllowsFlightControl("vd-1"));
}

TEST_F(DroneFixture, SurveyAppCapturesAndMarksFiles) {
  auto vd = system_.Deploy(SurveyDefinition("vd-1"));
  ASSERT_TRUE(vd.ok());
  ASSERT_TRUE(system_.vdc().NotifyWaypointReached("vd-1", 0).ok());
  auto* app = static_cast<SurveyApp*>((*vd)->apps[0].get());
  EXPECT_EQ(app->frames_captured, 4);  // "passes" argument honored.
  EXPECT_EQ((*vd)->files_for_user.size(), 1u);
  ASSERT_TRUE(system_.vdc()
                  .NotifyWaypointLeft("vd-1", TenancyEndReason::kCompleted)
                  .ok());
  EXPECT_TRUE(app->saw_inactive);
  // Offload lands in per-user cloud storage.
  ASSERT_TRUE(system_.vdc().OffloadFiles("vd-1").ok());
  auto files = system_.cloud_storage().ListUserFiles("alice");
  ASSERT_EQ(files.size(), 1u);
  auto content = system_.cloud_storage().Get("alice", files[0]);
  ASSERT_TRUE(content.ok());
  EXPECT_NE(content->find("\"frames\":4"), std::string::npos);
}

TEST_F(DroneFixture, RogueAppProcessIsTerminated) {
  VirtualDroneDefinition def;
  def.id = "vd-rogue";
  def.owner = "mallory";
  def.waypoints = {WaypointSpec{kWaypointA, 40}};
  def.max_duration_s = 300;
  def.energy_allotted_j = 45000;
  def.waypoint_devices = {"camera"};
  def.apps = {"com.example.rogue"};
  auto vd = system_.Deploy(def);
  ASSERT_TRUE(vd.ok()) << vd.status();
  ASSERT_TRUE(system_.vdc().NotifyWaypointReached("vd-rogue", 0).ok());
  Pid rogue_pid = (*vd)->app_pids["com.example.rogue"];
  // Rogue holds the camera.
  EXPECT_FALSE(
      system_.device_stack().camera_service->ActivePids((*vd)->container->id())
          .empty());
  ASSERT_TRUE(system_.vdc()
                  .NotifyWaypointLeft("vd-rogue", TenancyEndReason::kCompleted)
                  .ok());
  // The VDC killed the process that refused to let go (paper §4.4).
  bool still_running = false;
  for (const ContainerProcess& p : (*vd)->container->processes()) {
    still_running |= p.pid == rogue_pid;
  }
  EXPECT_FALSE(still_running);
  EXPECT_TRUE(system_.device_stack()
                  .camera_service->ActivePids((*vd)->container->id())
                  .empty());
}

TEST_F(DroneFixture, ContinuousDevicesSuspendedDuringOtherTenancy) {
  // Traffic tenant with continuous camera+gps over two waypoints.
  system_.vdc().RegisterAppFactory(
      "com.example.traffic", [] { return std::make_unique<RogueApp>(); },
      kTrafficManifest);
  VirtualDroneDefinition traffic;
  traffic.id = "vd-traffic";
  traffic.owner = "bob";
  traffic.waypoints = {WaypointSpec{kWaypointA, 40},
                       WaypointSpec{kWaypointB, 40}};
  traffic.max_duration_s = 600;
  traffic.energy_allotted_j = 90000;
  traffic.continuous_devices = {"camera", "gps"};
  auto tvd = system_.Deploy(traffic);
  ASSERT_TRUE(tvd.ok()) << tvd.status();
  ContainerId tcid = (*tvd)->container->id();

  auto svd = system_.Deploy(SurveyDefinition("vd-1"));
  ASSERT_TRUE(svd.ok());

  // Before its first waypoint: no continuous access yet.
  EXPECT_FALSE(system_.vdc().AllowsDevicePermission(tcid, kPermGps));
  ASSERT_TRUE(system_.vdc().NotifyWaypointReached("vd-traffic", 0).ok());
  EXPECT_TRUE(system_.vdc().AllowsDevicePermission(tcid, kPermGps));
  ASSERT_TRUE(system_.vdc()
                  .NotifyWaypointLeft("vd-traffic",
                                      TenancyEndReason::kCompleted)
                  .ok());
  // Between its waypoints: continuous access persists.
  EXPECT_TRUE(system_.vdc().AllowsDevicePermission(tcid, kPermCamera));

  // While the *other* tenant operates at its waypoint, continuous access is
  // suspended (privacy default, paper §2).
  ASSERT_TRUE(system_.vdc().NotifyWaypointReached("vd-1", 0).ok());
  EXPECT_FALSE(system_.vdc().AllowsDevicePermission(tcid, kPermCamera));
  EXPECT_TRUE((*tvd)->suspended);
  ASSERT_TRUE(system_.vdc()
                  .NotifyWaypointLeft("vd-1", TenancyEndReason::kCompleted)
                  .ok());
  EXPECT_TRUE(system_.vdc().AllowsDevicePermission(tcid, kPermCamera));
  EXPECT_FALSE((*tvd)->suspended);

  // After its last waypoint: continuous access ends.
  ASSERT_TRUE(system_.vdc().NotifyWaypointReached("vd-traffic", 1).ok());
  ASSERT_TRUE(system_.vdc()
                  .NotifyWaypointLeft("vd-traffic",
                                      TenancyEndReason::kCompleted)
                  .ok());
  EXPECT_FALSE(system_.vdc().AllowsDevicePermission(tcid, kPermCamera));
}

TEST_F(DroneFixture, OnlyOneActiveTenancyAtATime) {
  auto a = system_.Deploy(SurveyDefinition("vd-1"));
  VirtualDroneDefinition def2 = SurveyDefinition("vd-2");
  auto b = system_.Deploy(def2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(system_.vdc().NotifyWaypointReached("vd-1", 0).ok());
  EXPECT_EQ(system_.vdc().NotifyWaypointReached("vd-2", 0).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DroneFixture, AccountingWarnsAndExhausts) {
  VirtualDroneDefinition def = SurveyDefinition("vd-1");
  def.apps.clear();
  def.app_args = JsonValue(JsonObject{});
  def.energy_allotted_j = 170.0 * 30;  // 30 seconds of tenancy power.
  def.max_duration_s = 1000;
  auto vd = system_.Deploy(def);
  ASSERT_TRUE(vd.ok());

  struct Probe : WaypointListener {
    double low_energy = -1;
    void LowEnergyWarning(double remaining) override { low_energy = remaining; }
  } probe;
  (*vd)->sdk->RegisterWaypointListener(&probe);

  ASSERT_TRUE(system_.vdc().NotifyWaypointReached("vd-1", 0).ok());
  std::string ended;
  TenancyEndReason reason = TenancyEndReason::kCompleted;
  system_.vdc().SetTenancyEndCallback(
      [&](const std::string& id, TenancyEndReason r) {
        ended = id;
        reason = r;
      });
  // The boot-installed 1 Hz accounting tick drains the allotment.
  system_.RunClockUntil([&] { return !ended.empty(); }, Seconds(60));
  EXPECT_EQ(ended, "vd-1");
  EXPECT_EQ(reason, TenancyEndReason::kEnergyExhausted);
  EXPECT_GE(probe.low_energy, 0);  // Warning fired on the way down.
  EXPECT_TRUE((*vd)->exhausted);
  EXPECT_FALSE(system_.vdc().AllowsFlightControl("vd-1"));
}

TEST_F(DroneFixture, StoreToVdrAndResumeOnNewDrone) {
  auto vd = system_.Deploy(SurveyDefinition("vd-1"));
  ASSERT_TRUE(vd.ok());
  ASSERT_TRUE(system_.vdc().NotifyWaypointReached("vd-1", 0).ok());
  ASSERT_TRUE(system_.vdc()
                  .NotifyWaypointLeft("vd-1", TenancyEndReason::kInterrupted)
                  .ok());
  ASSERT_TRUE(system_.vdc().StoreToVdr("vd-1", /*resumable=*/true).ok());
  auto stored = system_.vdr().Load("vd-1");
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(stored->resumable);
  EXPECT_FALSE(stored->image.empty());

  // "Another physical drone": a fresh system sharing the same VDR would
  // import the image; here we verify the image re-imports with app state.
  auto imported = system_.runtime().images()->Import(stored->image);
  ASSERT_TRUE(imported.ok());
  auto view = system_.runtime().images()->Flatten(*imported);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->count("/data/data/com.example.survey/saved_state.json"),
            1u);
}

TEST_F(DroneFixture, VdrProgressCarriesAllotmentsIntoTheNextDeploy) {
  ASSERT_TRUE(system_.Deploy(SurveyDefinition("vd-1")).ok());
  ASSERT_TRUE(system_.vdc().NotifyWaypointReached("vd-1", 0).ok());
  ASSERT_TRUE(system_.vdc().AccountActiveTenant(Seconds(7)));
  ASSERT_TRUE(system_.vdc()
                  .NotifyWaypointLeft("vd-1", TenancyEndReason::kInterrupted)
                  .ok());
  ASSERT_TRUE(system_.vdc().StoreToVdr("vd-1", /*resumable=*/true).ok());
  auto flown = system_.vdc().Find("vd-1");
  ASSERT_TRUE(flown.ok());
  auto stored = system_.vdr().Load("vd-1");
  ASSERT_TRUE(stored.ok());
  const VirtualDroneProgress& progress = stored->progress;
  EXPECT_GT(progress.energy_used_j, 0);
  EXPECT_GT(progress.time_used_s, 0);
  EXPECT_EQ(progress.waypoints_served, (*flown)->waypoints_served);
  EXPECT_EQ(progress.energy_used_j, (*flown)->energy_used_j);
  EXPECT_EQ(progress.time_used_s, (*flown)->time_used_s);
  EXPECT_TRUE(progress.reached_first_waypoint);
  EXPECT_EQ(progress.finished_last_waypoint,
            (*flown)->finished_last_waypoint);
  EXPECT_EQ(progress.exhausted, (*flown)->exhausted);

  // Another drone pulls the virtual drone from the shared VDR: the tenancy
  // resumes with exactly the usage the first flight left behind.
  SimClock clock;
  AnDroneSystem other(&clock, MakeOptions());
  ASSERT_TRUE(other.Boot().ok());
  other.vdc().RegisterAppFactory(
      "com.example.survey", [] { return std::make_unique<SurveyApp>(); },
      kSurveyManifest);
  other.vdr().Save("vd-1", *stored);
  auto resumed = other.Deploy(SurveyDefinition("vd-1"));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*resumed)->waypoints_served, progress.waypoints_served);
  EXPECT_EQ((*resumed)->energy_used_j, progress.energy_used_j);
  EXPECT_EQ((*resumed)->time_used_s, progress.time_used_s);
  EXPECT_TRUE((*resumed)->reached_first_waypoint);
  EXPECT_EQ((*resumed)->exhausted, progress.exhausted);
}

// ---------------- The §6.6 multi-waypoint flight simulation ----------------

TEST_F(DroneFixture, MultiTenantFlightEndToEnd) {
  // Tenant 1: autonomous survey app (camera + flight control at waypoint A).
  auto survey = system_.Deploy(SurveyDefinition("vd-1"));
  ASSERT_TRUE(survey.ok());

  // Tenant 2: direct access at waypoint B (flight control, no apps).
  VirtualDroneDefinition direct;
  direct.id = "vd-2";
  direct.owner = "carol";
  direct.waypoints = {WaypointSpec{kWaypointB, 30}};
  direct.max_duration_s = 40;  // Short tenancy; never calls completed.
  direct.energy_allotted_j = 90000;
  direct.waypoint_devices = {"camera", "flight-control"};
  auto direct_vd = system_.Deploy(direct, WhitelistTemplate::kFull);
  ASSERT_TRUE(direct_vd.ok());

  // Plan the flight over both tenants' waypoints.
  PlannerConfig pc;
  pc.depot = kBase;
  pc.fleet_size = 1;
  pc.annealing_iterations = 2000;
  FlightPlanner planner((EnergyModel()), pc);
  std::vector<PlannerJob> jobs;
  PlannerJob j1;
  j1.vdrone_id = 1;
  j1.vdrone_ref = "vd-1";
  j1.waypoint_index = 0;
  j1.waypoint = kWaypointA;
  j1.service_energy_j = 45000;
  j1.service_time_s = 30;
  PlannerJob j2 = j1;
  j2.vdrone_id = 2;
  j2.vdrone_ref = "vd-2";
  j2.waypoint = kWaypointB;
  j2.service_time_s = 40;
  jobs = {j1, j2};
  auto plan = planner.Plan(jobs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->routes.size(), 1u);
  ASSERT_EQ(plan->routes[0].stops.size(), 2u);

  // Fly it.
  auto report = system_.ExecuteRoute(plan->routes[0], jobs);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->waypoints_visited, 2u);
  EXPECT_GT(report->flight_time_s, 30);
  EXPECT_GT(report->battery_used_j, 10000);  // Flight is expensive.

  // The survey app ran at its waypoint and its file reached the cloud.
  auto* app = static_cast<SurveyApp*>((*survey)->apps[0].get());
  EXPECT_EQ(app->activations, 1);
  EXPECT_EQ(app->frames_captured, 4);
  EXPECT_FALSE(system_.cloud_storage().ListUserFiles("alice").empty());

  // Both tenants were saved to the VDR.
  EXPECT_TRUE(system_.vdr().Contains("vd-1"));
  EXPECT_TRUE(system_.vdr().Contains("vd-2"));

  // The drone is back on the ground at base, disarmed.
  EXPECT_FALSE(system_.flight().armed());
  EXPECT_LT(HaversineMeters(system_.physics().truth().position, kBase), 5.0);

  // Flight stability: the AED analyzer finds no sustained divergence.
  AedResult aed = AnalyzeAttitudeDivergence(system_.flight().flight_log());
  EXPECT_FALSE(aed.unstable);
}

TEST_F(DroneFixture, FourthVirtualDroneFailsToDeploy) {
  for (int i = 1; i <= 3; ++i) {
    VirtualDroneDefinition def = SurveyDefinition("vd-" + std::to_string(i));
    ASSERT_TRUE(system_.Deploy(def).ok()) << i;
  }
  VirtualDroneDefinition def4 = SurveyDefinition("vd-4");
  auto result = system_.Deploy(def4);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // The existing three are untouched (paper §6.3).
  for (int i = 1; i <= 3; ++i) {
    auto vd = system_.vdc().Find("vd-" + std::to_string(i));
    ASSERT_TRUE(vd.ok());
    EXPECT_EQ((*vd)->container->state(), ContainerState::kRunning);
  }
}

}  // namespace
}  // namespace androne
