#include <gtest/gtest.h>

#include "src/cloud/billing.h"
#include "src/cloud/energy_model.h"
#include "src/cloud/flight_planner.h"
#include "src/cloud/portal.h"
#include "src/cloud/vdr.h"
#include "src/core/definition.h"
#include "src/core/manifest.h"

namespace androne {
namespace {

const GeoPoint kDepot{43.6084298, -85.8110359, 0};

// ------------------------------------------------------------- Energy.

TEST(EnergyModelTest, HoverPowerMatchesAirframe) {
  EnergyModel model;
  // The prototype airframe hovers at ~170 W.
  EXPECT_NEAR(model.HoverPowerW(), 170.0, 25.0);
}

TEST(EnergyModelTest, PayloadIncreasesPower) {
  EnergyModel model;
  EXPECT_GT(model.HoverPowerW(0.5), model.HoverPowerW(0.0));
  // Superlinear in total mass (exponent 1.5).
  double p0 = model.HoverPowerW(0.0);
  double p1 = model.HoverPowerW(1.6);  // Double the mass.
  EXPECT_GT(p1 / p0, 2.0);
  EXPECT_LT(p1 / p0, 3.2);
}

TEST(EnergyModelTest, TravelEnergyScalesWithDistance) {
  EnergyModel model;
  double e1 = model.TravelEnergyJ(100, 6);
  double e2 = model.TravelEnergyJ(200, 6);
  EXPECT_NEAR(e2, 2 * e1, 1e-6);
}

TEST(EnergyModelTest, FasterTravelUsesLessEnergyPerDistance) {
  EnergyModel model;
  // Hover-dominated regime: flying faster spends less time airborne.
  EXPECT_LT(model.TravelEnergyJ(500, 8), model.TravelEnergyJ(500, 3));
}

TEST(EnergyModelTest, TwentyMinuteFlightFitsBattery) {
  EnergyModel model;
  double twenty_min_j = model.HoverPowerW() * 20 * 60;
  EXPECT_NEAR(twenty_min_j, 199800, 60000);  // ~the 5 Ah 3S pack.
}

// ------------------------------------------------------------- Planner.

PlannerJob MakeJob(int vdrone, int index, const NedPoint& offset,
                   double energy_j, double time_s) {
  PlannerJob job;
  job.vdrone_id = vdrone;
  job.vdrone_ref = "vd-" + std::to_string(vdrone);
  job.waypoint_index = index;
  job.waypoint = FromNed(kDepot, offset);
  job.service_energy_j = energy_j;
  job.service_time_s = time_s;
  return job;
}

PlannerConfig TestConfig(int fleet) {
  PlannerConfig config;
  config.depot = kDepot;
  config.fleet_size = fleet;
  config.annealing_iterations = 6000;
  return config;
}

TEST(FlightPlannerTest, EmptyPlan) {
  FlightPlanner planner(EnergyModel(), TestConfig(1));
  auto plan = planner.Plan({});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->feasible);
  EXPECT_EQ(plan->routes.size(), 1u);
  EXPECT_TRUE(plan->routes[0].stops.empty());
}

TEST(FlightPlannerTest, SingleJobRoundTrip) {
  FlightPlanner planner(EnergyModel(), TestConfig(1));
  auto plan = planner.Plan({MakeJob(1, 0, {200, 0, -15}, 10000, 60)});
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->routes[0].stops.size(), 1u);
  // Energy = out + service + back; service was 10 kJ.
  EXPECT_GT(plan->routes[0].total_energy_j, 10000);
  EXPECT_LT(plan->routes[0].total_energy_j, 50000);
  EXPECT_TRUE(plan->feasible);
}

TEST(FlightPlannerTest, AllJobsScheduledExactlyOnce) {
  FlightPlanner planner(EnergyModel(), TestConfig(2));
  std::vector<PlannerJob> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(MakeJob(i, 0, {50.0 * (i + 1), 30.0 * i, -15}, 5000, 30));
  }
  auto plan = planner.Plan(jobs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<int> seen(jobs.size(), 0);
  for (const PlannedRoute& route : plan->routes) {
    for (const PlannedStop& stop : route.stops) {
      seen[stop.job_index]++;
    }
  }
  for (int count : seen) {
    EXPECT_EQ(count, 1);
  }
}

TEST(FlightPlannerTest, RespectsBatteryCapacity) {
  // Jobs whose combined energy needs more than one battery must split
  // across the fleet.
  PlannerConfig config = TestConfig(3);
  FlightPlanner planner(EnergyModel(), config);
  std::vector<PlannerJob> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeJob(i, 0, {100.0 + 20 * i, 0, -15}, 60000, 300));
  }
  auto plan = planner.Plan(jobs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  double usable = config.battery_capacity_j * (1 - kEnergyReserveFraction);
  int used_routes = 0;
  for (const PlannedRoute& route : plan->routes) {
    EXPECT_LE(route.total_energy_j, usable);
    used_routes += route.stops.empty() ? 0 : 1;
  }
  EXPECT_GE(used_routes, 2);
}

TEST(FlightPlannerTest, InfeasibleSingleJobRejected) {
  FlightPlanner planner(EnergyModel(), TestConfig(1));
  // Service energy alone exceeds the battery.
  auto plan = planner.Plan({MakeJob(1, 0, {100, 0, -15}, 500000, 60)});
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FlightPlannerTest, AnnealingImprovesOnBadSeed) {
  // Clustered jobs: a good plan visits each cluster on one route.
  FlightPlanner planner(EnergyModel(), TestConfig(2));
  std::vector<PlannerJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(MakeJob(i, 0, {400.0 + 10 * i, 0, -15}, 2000, 20));
    jobs.push_back(MakeJob(10 + i, 0, {-400.0 - 10 * i, 0, -15}, 2000, 20));
  }
  auto plan = planner.Plan(jobs);
  ASSERT_TRUE(plan.ok());
  // Round-robin seeding mixes clusters (~3.3 km of travel); annealing
  // should find the clustered split (~1.7 km -> makespan < 400 s with
  // service time).
  EXPECT_LT(plan->makespan_s, 400.0);
}

TEST(FlightPlannerTest, PlanIsDeterministicForSeed) {
  FlightPlanner planner(EnergyModel(), TestConfig(2));
  std::vector<PlannerJob> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeJob(i, 0, {60.0 * i + 30, -40.0 * i, -15}, 4000, 25));
  }
  auto a = planner.Plan(jobs);
  auto b = planner.Plan(jobs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->makespan_s, b->makespan_s);
}

// ----------------------------------------------------------- VDR et al.

TEST(VdrTest, SaveLoadRemove) {
  VirtualDroneRepository vdr;
  vdr.Save("vd-1", StoredVirtualDrone{{}, {1, 2, 3}, true, {}});
  EXPECT_TRUE(vdr.Contains("vd-1"));
  auto loaded = vdr.Load("vd-1");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->resumable);
  EXPECT_EQ(loaded->image.size(), 3u);
  EXPECT_EQ(vdr.List().size(), 1u);
  EXPECT_TRUE(vdr.Remove("vd-1").ok());
  EXPECT_FALSE(vdr.Load("vd-1").ok());
  EXPECT_FALSE(vdr.Remove("vd-1").ok());
}

TEST(CloudStorageTest, PerUserFiles) {
  CloudStorage storage;
  storage.Put("alice", "/flight1/video.mp4", "bytes");
  storage.Put("alice", "/flight1/report.json", "{}");
  storage.Put("bob", "/x", "y");
  EXPECT_EQ(storage.Get("alice", "/flight1/video.mp4").value(), "bytes");
  EXPECT_EQ(storage.ListUserFiles("alice").size(), 2u);
  EXPECT_EQ(storage.ListUserFiles("carol").size(), 0u);
  EXPECT_FALSE(storage.Get("bob", "/flight1/video.mp4").ok());
}

TEST(AppStoreTest, PublishAndFetch) {
  AppStore store;
  EXPECT_FALSE(store.Publish(AppPackage{}).ok());
  ASSERT_TRUE(store.Publish({"com.example.survey", "<androne-manifest/>",
                             "apk"}).ok());
  EXPECT_TRUE(store.Fetch("com.example.survey").ok());
  EXPECT_FALSE(store.Fetch("com.example.absent").ok());
  EXPECT_EQ(store.List().size(), 1u);
}

// ------------------------------------------------------------- Billing.

TEST(BillingTest, EstimateAndInverse) {
  Billing billing;
  BillingEstimate est = billing.Estimate(45000, 170);
  EXPECT_NEAR(est.flight_time_estimate_s, 45000.0 / 170.0, 1e-6);
  EXPECT_NEAR(est.energy_cost, 45000.0 / 1e6 * 2.50, 1e-9);
  double energy = billing.MaxEnergyForCharge(0.25);
  EXPECT_NEAR(billing.Estimate(energy, 170).energy_cost, 0.25, 1e-9);
}

// ------------------------------------------------------------ Definition.

const char kFig2Json[] = R"({
  "waypoints": [
    { "latitude": 43.6084298, "longitude": -85.8110359,
      "altitude": 15, "max-radius": 30 },
    { "latitude": 43.6076409, "longitude": -85.8154457,
      "altitude": 15, "max-radius": 20 }
  ],
  "max-duration": 600,
  "energy-allotted": 45000,
  "continuous-devices": [],
  "waypoint-devices": ["camera", "flight-control"],
  "apps": ["com.example.survey"],
  "app-args": {
    "com.example.survey": {
      "survey-areas": [[43.6087619, -85.8104110], [43.6087968, -85.8109877]]
    }
  }
})";

TEST(DefinitionTest, ParsesFig2Example) {
  auto def = VirtualDroneDefinition::FromJson(kFig2Json);
  ASSERT_TRUE(def.ok()) << def.status();
  EXPECT_EQ(def->waypoints.size(), 2u);
  EXPECT_NEAR(def->waypoints[0].point.latitude_deg, 43.6084298, 1e-9);
  EXPECT_DOUBLE_EQ(def->waypoints[1].max_radius_m, 20);
  EXPECT_DOUBLE_EQ(def->max_duration_s, 600);
  EXPECT_DOUBLE_EQ(def->energy_allotted_j, 45000);
  EXPECT_TRUE(def->WantsFlightControl());
  EXPECT_TRUE(def->WantsDevice("camera"));
  EXPECT_FALSE(def->WantsDeviceContinuously("camera"));
  EXPECT_EQ(def->apps.size(), 1u);
  EXPECT_NE(def->app_args.Find("com.example.survey"), nullptr);
}

TEST(DefinitionTest, JsonRoundTrip) {
  auto def = VirtualDroneDefinition::FromJson(kFig2Json);
  ASSERT_TRUE(def.ok());
  def->id = "vd-1";
  def->owner = "alice";
  auto again = VirtualDroneDefinition::FromJson(def->ToJson());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->id, "vd-1");
  EXPECT_EQ(again->waypoints.size(), 2u);
  EXPECT_EQ(again->waypoint_devices, def->waypoint_devices);
  EXPECT_EQ(again->app_args, def->app_args);
}

TEST(DefinitionTest, RejectsInvalidDefinitions) {
  EXPECT_FALSE(VirtualDroneDefinition::FromJson("[]").ok());
  EXPECT_FALSE(VirtualDroneDefinition::FromJson("{}").ok());  // No waypoints.
  // Flight control as continuous device is forbidden (paper §3).
  const char kBad[] = R"({
    "waypoints": [{"latitude": 0, "longitude": 0, "altitude": 10}],
    "continuous-devices": ["flight-control"]
  })";
  auto def = VirtualDroneDefinition::FromJson(kBad);
  EXPECT_FALSE(def.ok());
  // Unknown device.
  const char kUnknown[] = R"({
    "waypoints": [{"latitude": 0, "longitude": 0, "altitude": 10}],
    "waypoint-devices": ["x-ray"]
  })";
  EXPECT_FALSE(VirtualDroneDefinition::FromJson(kUnknown).ok());
  // Bad coordinates.
  const char kBadCoord[] = R"({
    "waypoints": [{"latitude": 91, "longitude": 0, "altitude": 10}]
  })";
  EXPECT_FALSE(VirtualDroneDefinition::FromJson(kBadCoord).ok());
}

// ------------------------------------------------------------- Manifest.

const char kSurveyManifest[] = R"(
<androne-manifest package="com.example.survey">
  <uses-permission name="camera" type="waypoint"/>
  <uses-permission name="gps" type="continuous"/>
  <uses-permission name="flight-control" type="waypoint"/>
  <argument name="survey-areas" type="polygon" required="true"/>
  <argument name="resolution" type="number" required="false"/>
</androne-manifest>)";

TEST(ManifestTest, ParsesAndQueries) {
  auto manifest = AndroneManifest::Parse(kSurveyManifest);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->package, "com.example.survey");
  EXPECT_EQ(manifest->permissions.size(), 3u);
  EXPECT_TRUE(manifest->RequestsDevice("camera"));
  EXPECT_TRUE(manifest->RequestsDeviceContinuously("gps"));
  EXPECT_FALSE(manifest->RequestsDeviceContinuously("camera"));
  EXPECT_EQ(manifest->arguments.size(), 2u);
  EXPECT_TRUE(manifest->arguments[0].required);
}

TEST(ManifestTest, ValidateArgs) {
  auto manifest = AndroneManifest::Parse(kSurveyManifest);
  ASSERT_TRUE(manifest.ok());
  JsonObject good;
  good["survey-areas"] = JsonArray{};
  EXPECT_TRUE(manifest->ValidateArgs(JsonValue(good)).ok());
  JsonObject missing;  // Required argument absent.
  EXPECT_FALSE(manifest->ValidateArgs(JsonValue(missing)).ok());
  JsonObject undeclared = good;
  undeclared["bogus"] = 1;
  EXPECT_FALSE(manifest->ValidateArgs(JsonValue(undeclared)).ok());
}

TEST(ManifestTest, RejectsBadManifests) {
  EXPECT_FALSE(AndroneManifest::Parse("<manifest/>").ok());  // Wrong root.
  EXPECT_FALSE(AndroneManifest::Parse("<androne-manifest/>").ok());  // No pkg.
  EXPECT_FALSE(AndroneManifest::Parse(
                   R"(<androne-manifest package="x">
                      <uses-permission name="warp-drive" type="waypoint"/>
                      </androne-manifest>)")
                   .ok());
  EXPECT_FALSE(AndroneManifest::Parse(
                   R"(<androne-manifest package="x">
                      <uses-permission name="flight-control" type="continuous"/>
                      </androne-manifest>)")
                   .ok());
}

TEST(ManifestTest, XmlRoundTrip) {
  auto manifest = AndroneManifest::Parse(kSurveyManifest);
  ASSERT_TRUE(manifest.ok());
  auto again = AndroneManifest::Parse(manifest->ToXml());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->package, manifest->package);
  EXPECT_EQ(again->permissions.size(), manifest->permissions.size());
  EXPECT_EQ(again->arguments.size(), manifest->arguments.size());
}

// -------------------------------------------------------------- Portal.

class PortalTest : public ::testing::Test {
 protected:
  PortalTest()
      : portal_(&app_store_, &vdr_, EnergyModel(), Billing()) {
    app_store_.Publish({"com.example.survey", kSurveyManifest, "apk"});
  }

  OrderRequest BasicRequest() {
    OrderRequest request;
    request.user = "alice";
    request.waypoints = {WaypointSpec{{43.6084298, -85.8110359, 15}, 0}};
    request.apps = {"com.example.survey"};
    JsonObject args;
    JsonObject survey_args;
    survey_args["survey-areas"] = JsonArray{};
    args["com.example.survey"] = JsonValue(survey_args);
    request.app_args = JsonValue(args);
    return request;
  }

  AppStore app_store_;
  VirtualDroneRepository vdr_;
  Portal portal_;
};

TEST_F(PortalTest, OrderProducesValidDefinitionInVdr) {
  auto confirmation = portal_.OrderVirtualDrone(BasicRequest());
  ASSERT_TRUE(confirmation.ok()) << confirmation.status();
  EXPECT_FALSE(confirmation->vdrone_id.empty());
  // Device requirements merged from the app manifest.
  const VirtualDroneDefinition& def = confirmation->definition;
  EXPECT_TRUE(def.WantsDevice("camera"));
  EXPECT_TRUE(def.WantsDeviceContinuously("gps"));
  EXPECT_TRUE(def.WantsFlightControl());
  EXPECT_EQ(def.owner, "alice");
  // Default geofence radius applied.
  EXPECT_DOUBLE_EQ(def.waypoints[0].max_radius_m, 100.0);
  // Stored in the VDR as the confirmed definition, field by field.
  auto stored = vdr_.Load(confirmation->vdrone_id);
  ASSERT_TRUE(stored.ok());
  const VirtualDroneDefinition& kept = stored->definition;
  EXPECT_EQ(kept.id, confirmation->vdrone_id);
  EXPECT_EQ(kept.id, def.id);
  EXPECT_EQ(kept.owner, def.owner);
  ASSERT_EQ(kept.waypoints.size(), def.waypoints.size());
  for (size_t i = 0; i < def.waypoints.size(); ++i) {
    EXPECT_EQ(kept.waypoints[i].point.latitude_deg,
              def.waypoints[i].point.latitude_deg);
    EXPECT_EQ(kept.waypoints[i].point.longitude_deg,
              def.waypoints[i].point.longitude_deg);
    EXPECT_EQ(kept.waypoints[i].point.altitude_m,
              def.waypoints[i].point.altitude_m);
    EXPECT_EQ(kept.waypoints[i].max_radius_m, def.waypoints[i].max_radius_m);
  }
  EXPECT_EQ(kept.max_duration_s, def.max_duration_s);
  EXPECT_EQ(kept.energy_allotted_j, def.energy_allotted_j);
  EXPECT_EQ(kept.continuous_devices, def.continuous_devices);
  EXPECT_EQ(kept.waypoint_devices, def.waypoint_devices);
  EXPECT_EQ(kept.apps, def.apps);
  EXPECT_EQ(kept.app_args, def.app_args);
  EXPECT_FALSE(stored->resumable);
  EXPECT_TRUE(stored->image.empty());
  // The Figure 2 text is still one call away and round-trips byte for byte.
  const std::string json = kept.ToJson();
  auto parsed = VirtualDroneDefinition::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ToJson(), json);
  // Billing estimate present.
  EXPECT_GT(confirmation->estimate.energy_j, 0);
  EXPECT_GT(confirmation->estimate.flight_time_estimate_s, 0);
}

TEST_F(PortalTest, RejectsMissingRequiredArgs) {
  OrderRequest request = BasicRequest();
  request.app_args = JsonValue(JsonObject{});
  EXPECT_FALSE(portal_.OrderVirtualDrone(request).ok());
}

TEST_F(PortalTest, RejectsUnknownApp) {
  OrderRequest request = BasicRequest();
  request.apps = {"com.example.absent"};
  EXPECT_EQ(portal_.OrderVirtualDrone(request).status().code(),
            StatusCode::kNotFound);
}

TEST_F(PortalTest, RejectsOversizedGeofence) {
  OrderRequest request = BasicRequest();
  request.geofence_radius_m = 10000;
  EXPECT_FALSE(portal_.OrderVirtualDrone(request).ok());
}

TEST_F(PortalTest, MaxChargeBoundsEnergy) {
  OrderRequest request = BasicRequest();
  request.max_billing_dollars = 0.10;
  auto confirmation = portal_.OrderVirtualDrone(request);
  ASSERT_TRUE(confirmation.ok());
  EXPECT_NEAR(confirmation->definition.energy_allotted_j, 40000, 1);
}

TEST_F(PortalTest, AdvancedUsersGetExtraDevices) {
  OrderRequest request = BasicRequest();
  request.apps.clear();
  request.app_args = JsonValue(JsonObject{});
  request.extra_waypoint_devices = {"flight-control", "camera"};
  request.extra_continuous_devices = {"gps"};
  auto confirmation = portal_.OrderVirtualDrone(request);
  ASSERT_TRUE(confirmation.ok()) << confirmation.status();
  EXPECT_TRUE(confirmation->definition.WantsFlightControl());
  EXPECT_TRUE(confirmation->definition.WantsDeviceContinuously("gps"));
}

TEST_F(PortalTest, OrderIdsAreUnique) {
  auto a = portal_.OrderVirtualDrone(BasicRequest());
  auto b = portal_.OrderVirtualDrone(BasicRequest());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->vdrone_id, b->vdrone_id);
  EXPECT_EQ(vdr_.List().size(), 2u);
}

}  // namespace
}  // namespace androne
