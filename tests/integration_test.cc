// Cross-module integration and failure-injection tests: battery failsafe,
// virtual drone resume on a different physical drone, lossy-network control,
// sensor degradation, and the kernel-latency/flight coupling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/drone.h"
#include "src/core/reference_apps.h"
#include "src/flight/sitl.h"
#include "src/net/channel.h"
#include "src/services/device_services.h"

namespace androne {
namespace {

const GeoPoint kBase{43.6084298, -85.8110359, 0};
const GeoPoint kWaypointA{43.6084298, -85.8110359, 15};
const GeoPoint kWaypointB{43.6076409, -85.8154457, 15};

// ------------------------------------------------------- Battery failsafe.

TEST(FailsafeTest, LowBatteryForcesRtlAndLanding) {
  SimClock clock;
  SitlDrone drone(&clock, kBase, 21);
  clock.RunFor(Seconds(2));
  // Drain the pack to just above the failsafe line, then hover.
  drone.battery().Drain(170.0,
                        SecondsF(drone.battery().capacity_joules() / 170.0 *
                                 0.82));
  drone.SetModeCmd(CopterMode::kGuided);
  drone.ArmCmd();
  drone.TakeoffCmd(12.0);
  ASSERT_TRUE(drone.RunUntil(
      [&] { return drone.physics().truth().position.altitude_m > 11.0; },
      Seconds(60)));
  // Fly away; the failsafe must bring it home regardless.
  GeoPoint away = FromNed(kBase, NedPoint{60, 0, -12});
  drone.GotoCmd(away);
  ASSERT_TRUE(drone.RunUntil(
      [&] { return drone.controller().battery_failsafe_triggered(); },
      Seconds(300)));
  EXPECT_TRUE(drone.RunUntil([&] { return !drone.controller().armed(); },
                             Seconds(300)));
  EXPECT_LT(HaversineMeters(drone.physics().truth().position, kBase), 6.0);
  bool saw_failsafe_text = false;
  for (const std::string& text : drone.status_texts()) {
    saw_failsafe_text |= text.find("Battery failsafe") != std::string::npos;
  }
  EXPECT_TRUE(saw_failsafe_text);
}

TEST(FailsafeTest, FailsafeDisabledWhenConfiguredOff) {
  SimClock clock;
  // Build a SITL drone and switch the failsafe off via its config... the
  // SITL harness uses defaults, so construct the controller directly.
  QuadPhysics physics(kBase);
  MotorSet motors;
  (void)motors.Open(0);
  GpsReceiver gps(&clock, physics.mutable_truth(), 1);
  Imu imu(&clock, physics.mutable_truth(), 2);
  Barometer baro(&clock, physics.mutable_truth(), 3);
  Magnetometer mag(&clock, physics.mutable_truth(), 4);
  (void)gps.Open(0);
  (void)imu.Open(0);
  (void)baro.Open(0);
  (void)mag.Open(0);
  DirectSensorSource sensors(&gps, &imu, &baro, &mag, 0);
  Battery battery;
  FlightControllerConfig config;
  config.home = kBase;
  config.battery_failsafe_fraction = 0.0;  // Disabled.
  FlightController controller(&clock, &physics, &motors, &sensors, &battery,
                              config);
  controller.Start();
  clock.RunFor(Seconds(2));
  battery.Drain(170.0, SecondsF(battery.capacity_joules() / 170.0 * 0.95));
  SetMode guided;
  guided.custom_mode = static_cast<uint32_t>(CopterMode::kGuided);
  controller.HandleFrame(PackMessage(MavMessage{guided}));
  CommandLong arm;
  arm.command = static_cast<uint16_t>(MavCmd::kComponentArmDisarm);
  arm.param1 = 1;
  controller.HandleFrame(PackMessage(MavMessage{arm}));
  CommandLong takeoff;
  takeoff.command = static_cast<uint16_t>(MavCmd::kNavTakeoff);
  takeoff.param7 = 10;
  controller.HandleFrame(PackMessage(MavMessage{takeoff}));
  clock.RunFor(Seconds(30));
  EXPECT_FALSE(controller.battery_failsafe_triggered());
  EXPECT_EQ(controller.mode(), CopterMode::kGuided);
}

// --------------------------------------------- Resume on another drone.

const char kCounterManifest[] = R"(
<androne-manifest package="com.example.counter">
  <uses-permission name="camera" type="waypoint"/>
</androne-manifest>)";

class CounterApp : public AndroneApp {
 public:
  CounterApp() : AndroneApp("com.example.counter", 0) {}
  int waypoints_done = 0;

  void WaypointActive(const WaypointSpec&) override {
    ++waypoints_done;
    SaveInstanceState();
    sdk()->WaypointCompleted();
  }

 protected:
  JsonValue OnSaveInstanceState() override {
    JsonObject state;
    state["done"] = waypoints_done;
    return JsonValue(std::move(state));
  }
  void OnRestoreInstanceState(const JsonValue& state) override {
    waypoints_done = static_cast<int>(state.GetIntOr("done", 0));
  }
};

TEST(ResumeTest, InterruptedVirtualDroneResumesOnAnotherDrone) {
  VirtualDroneDefinition def;
  def.id = "vd-resume";
  def.owner = "alice";
  def.waypoints = {WaypointSpec{kWaypointA, 30}, WaypointSpec{kWaypointB, 30}};
  def.max_duration_s = 600;
  def.energy_allotted_j = 90000;
  def.waypoint_devices = {"camera"};
  def.apps = {"com.example.counter"};

  StoredVirtualDrone saved;
  {
    // Flight 1, drone A: serve waypoint 0, then weather interrupts.
    SimClock clock;
    AnDroneOptions options;
    options.base = kBase;
    AnDroneSystem drone_a(&clock, options);
    ASSERT_TRUE(drone_a.Boot().ok());
    CounterApp* app = nullptr;
    drone_a.vdc().RegisterAppFactory(
        "com.example.counter",
        [&app] {
          auto a = std::make_unique<CounterApp>();
          app = a.get();
          return a;
        },
        kCounterManifest);
    ASSERT_TRUE(drone_a.Deploy(def).ok());
    ASSERT_TRUE(drone_a.vdc().NotifyWaypointReached("vd-resume", 0).ok());
    ASSERT_TRUE(drone_a.vdc()
                    .NotifyWaypointLeft("vd-resume",
                                        TenancyEndReason::kInterrupted)
                    .ok());
    EXPECT_EQ(app->waypoints_done, 1);
    ASSERT_TRUE(drone_a.vdc().StoreToVdr("vd-resume", /*resumable=*/true).ok());
    saved = drone_a.vdr().Load("vd-resume").value();
  }
  ASSERT_TRUE(saved.resumable);

  // Flight 2, drone B: a different physical drone pulls the virtual drone
  // from the (shared) VDR; the app resumes with its saved count.
  SimClock clock;
  AnDroneOptions options;
  options.base = kBase;
  options.seed = 99;
  AnDroneSystem drone_b(&clock, options);
  ASSERT_TRUE(drone_b.Boot().ok());
  drone_b.vdr().Save("vd-resume", saved);
  CounterApp* resumed = nullptr;
  drone_b.vdc().RegisterAppFactory(
      "com.example.counter",
      [&resumed] {
        auto a = std::make_unique<CounterApp>();
        resumed = a.get();
        return a;
      },
      kCounterManifest);
  ASSERT_TRUE(drone_b.Deploy(def).ok());
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->waypoints_done, 1);  // State carried across drones.
  // Serve the remaining waypoint.
  ASSERT_TRUE(drone_b.vdc().NotifyWaypointReached("vd-resume", 1).ok());
  ASSERT_TRUE(drone_b.vdc()
                  .NotifyWaypointLeft("vd-resume",
                                      TenancyEndReason::kCompleted)
                  .ok());
  EXPECT_EQ(resumed->waypoints_done, 2);
  auto vd = drone_b.vdc().Find("vd-resume");
  ASSERT_TRUE(vd.ok());
  EXPECT_TRUE((*vd)->finished_last_waypoint);
}

// ----------------------------------------------- Lossy cellular control.

TEST(NetworkRobustnessTest, GuidedFlightSurvivesLossyLink) {
  // Drive the drone over a link with 100x the LTE loss rate; guided-mode
  // position targets are idempotent, so control still converges.
  class LossyLte : public CellularLteModel {
   public:
    bool SampleLoss(Rng& rng) const override { return rng.Bernoulli(0.004); }
  };
  SimClock clock;
  SitlDrone drone(&clock, kBase, 31);
  clock.RunFor(Seconds(2));
  LossyLte lossy;
  NetworkChannel uplink(&clock, &lossy, 5);
  MavlinkParser parser;
  uplink.SetReceiver([&](const std::vector<uint8_t>& datagram) {
    parser.Feed(datagram);
    for (const MavlinkFrame& frame : parser.TakeFrames()) {
      drone.controller().HandleFrame(frame);
    }
  });
  auto send = [&uplink](const MavMessage& message) {
    uplink.Send(EncodeFrame(PackMessage(message)));
  };

  SetMode guided;
  guided.custom_mode = static_cast<uint32_t>(CopterMode::kGuided);
  send(MavMessage{guided});
  CommandLong arm;
  arm.command = static_cast<uint16_t>(MavCmd::kComponentArmDisarm);
  arm.param1 = 1;
  send(MavMessage{arm});
  clock.RunFor(Seconds(1));
  CommandLong takeoff;
  takeoff.command = static_cast<uint16_t>(MavCmd::kNavTakeoff);
  takeoff.param7 = 15;
  send(MavMessage{takeoff});
  GeoPoint target = kWaypointB;
  // A GCS keeps re-sending the current target at 1 Hz, as real ones do.
  SetPositionTargetGlobalInt sp;
  sp.lat_int = static_cast<int32_t>(target.latitude_deg * 1e7);
  sp.lon_int = static_cast<int32_t>(target.longitude_deg * 1e7);
  sp.alt = 15;
  sp.type_mask = 0x0FF8;
  bool arrived = false;
  for (int i = 0; i < 240 && !arrived; ++i) {
    send(MavMessage{sp});
    clock.RunFor(Seconds(1));
    arrived = drone.DistanceTo(target) < 3.0;
  }
  EXPECT_TRUE(arrived) << "remaining " << drone.DistanceTo(target);
}

// ------------------------------------------------- Sensor degradation.

TEST(SensorFailureTest, GpsOutageIsToleratedInHover) {
  // GPS drops to 3 satellites for 10 s mid-hover: the controller detects
  // the stale fix and holds a level attitude, baro holds altitude, and the
  // drone must not diverge. How far it drifts depends on the seed's noise,
  // so the check is over a sweep of seeds rather than one lucky seed.
  // Under libm numerics (before util/detmath) seeds 10..41 drifted median
  // 5.17 m, p90 7.62 m, max 11.10 m (seed 41: 3.46 m), and over seeds
  // 1..200 p10 2.49, p50 5.32, p90 7.71, max 11.10 m with none unstable.
  // The bounds are 1.5x that median and 1.5x that worst seed. Without the
  // stale-fix detection the same seeds drift median ~36 m, max ~88 m.
  std::vector<double> drifts;
  for (uint64_t seed = 10; seed <= 41; ++seed) {
    SimClock clock;
    SitlDrone drone(&clock, kBase, seed);
    clock.RunFor(Seconds(2));
    drone.SetModeCmd(CopterMode::kGuided);
    drone.ArmCmd();
    drone.TakeoffCmd(12.0);
    ASSERT_TRUE(drone.RunUntil(
        [&] { return drone.physics().truth().position.altitude_m > 11.0; },
        Seconds(60)))
        << "seed " << seed;
    GeoPoint before = drone.physics().truth().position;
    drone.gps().set_satellites(3);  // No fix.
    clock.RunFor(Seconds(10));
    drone.gps().set_satellites(11);  // Reacquired.
    clock.RunFor(Seconds(5));
    GeoPoint after = drone.physics().truth().position;
    double drift = HaversineMeters(before, after);
    EXPECT_LT(drift, 16.0) << "seed " << seed;
    AedResult aed = AnalyzeAttitudeDivergence(drone.controller().flight_log());
    EXPECT_FALSE(aed.unstable) << "seed " << seed;
    drifts.push_back(drift);
  }
  std::sort(drifts.begin(), drifts.end());
  double median = (drifts[15] + drifts[16]) / 2;
  EXPECT_LT(median, 7.75);
}

// -------------------------------------- Kernel latency vs flight safety.

class KernelFlightTest : public ::testing::TestWithParam<PreemptionModel> {};

TEST_P(KernelFlightTest, FlightStableUnderAnyKernelAtIdle) {
  SimClock clock;
  SitlDrone drone(&clock, kBase, 51);
  WakeLatencySampler sampler(GetParam(), IdleLoad(), 7);
  drone.controller().SetLatencySampler(&sampler);
  clock.RunFor(Seconds(2));
  drone.SetModeCmd(CopterMode::kGuided);
  drone.ArmCmd();
  drone.TakeoffCmd(10.0);
  ASSERT_TRUE(drone.RunUntil(
      [&] { return drone.physics().truth().position.altitude_m > 9.0; },
      Seconds(60)));
  clock.RunFor(Seconds(30));
  AedResult aed = AnalyzeAttitudeDivergence(drone.controller().flight_log());
  EXPECT_FALSE(aed.unstable);
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelFlightTest,
                         ::testing::Values(PreemptionModel::kPreempt,
                                           PreemptionModel::kPreemptRt));

}  // namespace
}  // namespace androne
