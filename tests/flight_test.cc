#include <gtest/gtest.h>

#include <cmath>

#include "src/flight/controllers.h"
#include "src/flight/estimator.h"
#include "src/flight/flight_log.h"
#include "src/flight/quad_physics.h"
#include "src/flight/sitl.h"

namespace androne {
namespace {

const GeoPoint kHome{43.6084298, -85.8110359, 0.0};

// ------------------------------------------------------------ Physics.

TEST(QuadPhysicsTest, RestsOnGroundWhenDisarmed) {
  QuadPhysics quad(kHome);
  MotorSet motors;
  ASSERT_TRUE(motors.Open(0).ok());
  for (int i = 0; i < 400; ++i) {
    quad.Step(Millis(2) + Micros(500), motors);
  }
  EXPECT_FALSE(quad.truth().airborne);
  EXPECT_NEAR(quad.truth().position.altitude_m, 0.0, 1e-6);
  EXPECT_DOUBLE_EQ(quad.total_rotor_power_w(), 0.0);
}

TEST(QuadPhysicsTest, HoverThrottleIsReasonable) {
  QuadPhysics quad(kHome);
  // 1.6 kg at 8 N/motor: hover around 49%.
  EXPECT_NEAR(quad.hover_throttle(), 0.49, 0.02);
}

TEST(QuadPhysicsTest, FullThrottleClimbs) {
  QuadPhysics quad(kHome);
  MotorSet motors;
  ASSERT_TRUE(motors.Open(0).ok());
  ASSERT_TRUE(motors.Arm(0).ok());
  ASSERT_TRUE(motors.SetThrottles(0, {0.8, 0.8, 0.8, 0.8}).ok());
  for (int i = 0; i < 800; ++i) {
    quad.Step(Micros(2500), motors);
  }
  EXPECT_TRUE(quad.truth().airborne);
  EXPECT_GT(quad.truth().position.altitude_m, 1.0);
  EXPECT_GT(quad.total_rotor_power_w(), 100.0);  // Flight is expensive.
}

TEST(QuadPhysicsTest, HoverPowerNear170W) {
  QuadPhysics quad(kHome);
  MotorSet motors;
  ASSERT_TRUE(motors.Open(0).ok());
  ASSERT_TRUE(motors.Arm(0).ok());
  double h = quad.hover_throttle();
  ASSERT_TRUE(motors.SetThrottles(0, {h, h, h, h}).ok());
  quad.Step(Micros(2500), motors);
  EXPECT_NEAR(quad.total_rotor_power_w(), 170.0, 25.0);
}

TEST(QuadPhysicsTest, DifferentialThrustRolls) {
  QuadPhysics quad(kHome);
  MotorSet motors;
  ASSERT_TRUE(motors.Open(0).ok());
  ASSERT_TRUE(motors.Arm(0).ok());
  // Climb first.
  ASSERT_TRUE(motors.SetThrottles(0, {0.8, 0.8, 0.8, 0.8}).ok());
  for (int i = 0; i < 400; ++i) {
    quad.Step(Micros(2500), motors);
  }
  // Left motors up -> roll right (positive).
  ASSERT_TRUE(motors.SetThrottles(0, {0.55, 0.65, 0.65, 0.55}).ok());
  for (int i = 0; i < 100; ++i) {
    quad.Step(Micros(2500), motors);
  }
  EXPECT_GT(quad.truth().roll_rad, 0.01);
}

// ------------------------------------------------------------ Estimator.

TEST(EstimatorTest, ConvergesToStaticAttitude) {
  Estimator est(kHome);
  ImuSample sample;
  sample.gyro_rads = {0, 0, 0};
  // Constant 0.1 rad pitch: accel reads g*sin(pitch) on x.
  sample.accel_mss = {9.80665 * std::sin(0.1), 0.0, -9.80665};
  for (int i = 0; i < 2000; ++i) {
    est.UpdateImu(sample, Micros(2500));
  }
  EXPECT_NEAR(est.attitude().pitch_rad, 0.1, 0.01);
  EXPECT_NEAR(est.attitude().roll_rad, 0.0, 0.01);
}

TEST(EstimatorTest, GyroIntegration) {
  Estimator est(kHome);
  ImuSample sample;
  sample.gyro_rads = {0.5, 0, 0};
  sample.accel_mss = {0, 0, -30.0};  // Out of the 1g window: no leveling.
  for (int i = 0; i < 400; ++i) {
    sample.timestamp += Micros(2500);  // Live sensor: timestamps advance.
    est.UpdateImu(sample, Micros(2500));
  }
  EXPECT_NEAR(est.attitude().roll_rad, 0.5, 0.01);
}

TEST(EstimatorTest, GpsAndBaroBlend) {
  Estimator est(kHome);
  GpsFix fix;
  fix.position = GeoPoint{43.609, -85.812, 30.0};
  fix.has_fix = true;
  est.UpdateGps(fix);
  EXPECT_TRUE(est.position().valid);
  EXPECT_NEAR(est.position().position.latitude_deg, 43.609, 1e-9);
  for (int i = 0; i < 100; ++i) {
    est.UpdateBaro(12.0);
  }
  EXPECT_NEAR(est.position().position.altitude_m, 12.0, 0.1);
}

TEST(EstimatorTest, NoFixIgnored) {
  Estimator est(kHome);
  GpsFix fix;
  fix.position = GeoPoint{1.0, 2.0, 3.0};
  fix.has_fix = false;
  est.UpdateGps(fix);
  EXPECT_FALSE(est.position().valid);
}

// A sensor-fault bias can push a heading far beyond any angle: wrapping
// the innovation must cost O(1), not a loop over |heading| / 2*pi that
// never ends once heading - 2*pi == heading.
TEST(EstimatorTest, HugeMagHeadingReturns) {
  Estimator est(kHome);
  for (double heading : {1e9, 1e20, -1e300}) {
    est.UpdateMag(heading);
    EXPECT_TRUE(std::isfinite(est.attitude().yaw_rad)) << heading;
    EXPECT_LE(std::abs(est.attitude().yaw_rad), M_PI) << heading;
  }
}

// ------------------------------------------------------------- AED.

TEST(FlightLogTest, AedFlagsSustainedDivergence) {
  FlightLog log;
  for (int i = 0; i < 100; ++i) {
    FlightLogEntry e;
    e.time = Millis(i * 40);
    e.est_roll_rad = 0.0;
    e.true_roll_rad = (i > 20 && i < 60) ? 0.2 : 0.0;  // ~11 deg for 1.6 s.
    log.Record(e);
  }
  AedResult r = AnalyzeAttitudeDivergence(log);
  EXPECT_TRUE(r.unstable);
  EXPECT_GT(r.worst_divergence_deg, 5.0);
}

TEST(FlightLogTest, AedAcceptsBriefDivergence) {
  FlightLog log;
  for (int i = 0; i < 100; ++i) {
    FlightLogEntry e;
    e.time = Millis(i * 40);
    e.est_pitch_rad = (i >= 50 && i < 58) ? 0.15 : 0.0;  // ~0.3 s only.
    log.Record(e);
  }
  AedResult r = AnalyzeAttitudeDivergence(log);
  EXPECT_FALSE(r.unstable);
}

TEST(FlightLogTest, AedReturnsOnAHugeYawDivergence) {
  // A fault-biased heading can put the estimate ~1e12 rad off. The degree
  // wrap used to subtract 360 one step at a time (O(|deg|) work, and no
  // exit once deg - 360 == deg); now it reduces with std::remainder first.
  FlightLog log;
  for (int i = 0; i < 100; ++i) {
    FlightLogEntry e;
    e.time = Millis(i * 40);
    e.est_yaw_rad = 1e12;  // 5.7e13 deg, which wraps to about -37.7 deg.
    log.Record(e);
  }
  AedResult r = AnalyzeAttitudeDivergence(log);
  EXPECT_TRUE(r.unstable);
  EXPECT_GT(r.worst_divergence_deg, 5.0);
  EXPECT_LE(r.worst_divergence_deg, 180.0);
  EXPECT_DOUBLE_EQ(r.worst_divergence_deg,
                   std::fabs(std::remainder(1e12 * 57.29577951308232, 360.0)));
}

// --------------------------------------------------------- Full stack.

class SitlTest : public ::testing::Test {
 protected:
  SitlTest() : drone_(&clock_, kHome, /*seed=*/7) {
    // Let sensors warm up and the estimator acquire GPS.
    clock_.RunFor(Seconds(2));
  }

  // Arms and takes off to |alt| m; returns true when stable at altitude.
  bool TakeoffTo(double alt) {
    drone_.SetModeCmd(CopterMode::kGuided);
    drone_.ArmCmd();
    drone_.TakeoffCmd(alt);
    return drone_.RunUntil(
        [&] {
          return std::fabs(drone_.physics().truth().position.altitude_m -
                           alt) < 1.0 &&
                 std::fabs(drone_.physics().truth().velocity_ms.down_m) < 0.3;
        },
        Seconds(40));
  }

  SimClock clock_;
  SitlDrone drone_;
};

TEST_F(SitlTest, ArmRequiresGpsFix) {
  // A drone with no GPS warmup: inject arm immediately on a fresh clock.
  SimClock fresh;
  SitlDrone cold(&fresh, kHome, 9);
  cold.ArmCmd();  // Estimator has no position yet.
  EXPECT_FALSE(cold.controller().armed());
}

TEST_F(SitlTest, TakeoffReachesAltitudeStably) {
  ASSERT_TRUE(TakeoffTo(15.0));
  EXPECT_TRUE(drone_.controller().armed());
  EXPECT_TRUE(drone_.physics().truth().airborne);
  // Attitude estimation stayed within the AED stability bound (paper §6.2).
  AedResult aed = AnalyzeAttitudeDivergence(drone_.controller().flight_log());
  EXPECT_FALSE(aed.unstable)
      << "worst divergence " << aed.worst_divergence_deg << " deg for "
      << ToMillis(aed.worst_span) << " ms";
}

TEST_F(SitlTest, HoverHoldsPosition) {
  ASSERT_TRUE(TakeoffTo(10.0));
  GeoPoint before = drone_.physics().truth().position;
  clock_.RunFor(Seconds(20));
  GeoPoint after = drone_.physics().truth().position;
  EXPECT_LT(HaversineMeters(before, after), 3.0);
  EXPECT_NEAR(after.altitude_m, 10.0, 1.5);
}

TEST_F(SitlTest, GuidedGotoReachesWaypoint) {
  ASSERT_TRUE(TakeoffTo(15.0));
  GeoPoint target{43.6076409, -85.8154457, 15.0};  // Fig. 2 waypoint B.
  drone_.GotoCmd(target);
  EXPECT_TRUE(drone_.RunUntil([&] { return drone_.DistanceTo(target) < 3.0; },
                              Seconds(180)))
      << "remaining distance " << drone_.DistanceTo(target);
}

TEST_F(SitlTest, SpeedIsLimited) {
  ASSERT_TRUE(TakeoffTo(15.0));
  GeoPoint target{43.6076409, -85.8154457, 15.0};
  drone_.GotoCmd(target);
  double max_speed = 0;
  for (int i = 0; i < 200; ++i) {
    clock_.RunFor(Millis(100));
    const NedPoint& v = drone_.physics().truth().velocity_ms;
    max_speed = std::max(max_speed, std::hypot(v.north_m, v.east_m));
  }
  EXPECT_LT(max_speed, 7.5);  // Default envelope is 6 m/s.
  EXPECT_GT(max_speed, 2.0);  // But it does actually move.
}

TEST_F(SitlTest, VelocityCommandMoves) {
  ASSERT_TRUE(TakeoffTo(10.0));
  drone_.VelocityCmd(2.0, 0.0, 0.0);  // North at 2 m/s.
  GeoPoint start = drone_.physics().truth().position;
  clock_.RunFor(Seconds(10));
  NedPoint moved = ToNed(start, drone_.physics().truth().position);
  EXPECT_GT(moved.north_m, 10.0);
  EXPECT_LT(std::fabs(moved.east_m), 4.0);
}

TEST_F(SitlTest, LandDisarms) {
  ASSERT_TRUE(TakeoffTo(8.0));
  drone_.LandCmd();
  EXPECT_TRUE(drone_.RunUntil(
      [&] { return !drone_.controller().armed(); }, Seconds(60)));
  EXPECT_FALSE(drone_.physics().truth().airborne);
}

TEST_F(SitlTest, RtlReturnsHomeAndLands) {
  ASSERT_TRUE(TakeoffTo(15.0));
  GeoPoint away{43.6080, -85.8125, 15.0};
  drone_.GotoCmd(away);
  ASSERT_TRUE(drone_.RunUntil([&] { return drone_.DistanceTo(away) < 3.0; },
                              Seconds(120)));
  drone_.RtlCmd();
  ASSERT_TRUE(drone_.RunUntil(
      [&] { return !drone_.controller().armed(); }, Seconds(180)));
  GeoPoint home_ground = kHome;
  EXPECT_LT(HaversineMeters(drone_.physics().truth().position, home_ground),
            5.0);
}

TEST_F(SitlTest, GeofenceBreachRecoversToLoiter) {
  ASSERT_TRUE(TakeoffTo(15.0));
  GeofenceConfig fence;
  fence.enabled = true;
  fence.center = drone_.physics().truth().position;
  fence.radius_m = 40.0;
  fence.max_altitude_m = 30.0;
  drone_.controller().SetGeofence(fence);
  bool breached = false, recovered = false;
  drone_.controller().SetFenceCallbacks([&] { breached = true; },
                                        [&] { recovered = true; });
  // Command a target far outside the fence.
  GeoPoint outside = FromNed(fence.center, NedPoint{200, 0, 0});
  drone_.GotoCmd(outside);
  ASSERT_TRUE(drone_.RunUntil([&] { return breached; }, Seconds(120)));
  ASSERT_TRUE(drone_.RunUntil([&] { return recovered; }, Seconds(120)));
  EXPECT_EQ(drone_.controller().mode(), CopterMode::kLoiter);
  // Stays inside after recovery.
  clock_.RunFor(Seconds(10));
  EXPECT_LT(HaversineMeters(drone_.physics().truth().position, fence.center),
            fence.radius_m + 5.0);
  // The drone kept flying: no failsafe landing (paper's key change).
  EXPECT_TRUE(drone_.controller().armed());
  EXPECT_TRUE(drone_.physics().truth().airborne);
}

TEST_F(SitlTest, BatteryDrainsInFlight) {
  double before = drone_.battery().consumed_joules();
  ASSERT_TRUE(TakeoffTo(10.0));
  clock_.RunFor(Seconds(30));
  double consumed = drone_.battery().consumed_joules() - before;
  // ~170 W for >= 30 s of hover (plus climb).
  EXPECT_GT(consumed, 170.0 * 30 * 0.8);
}

TEST_F(SitlTest, RtKernelLatencyDoesNotDestabilize) {
  // Run the fast loop under the PREEMPT_RT stress latency model: no missed
  // deadlines, stable flight (paper §6.2's headline claim).
  WakeLatencySampler sampler(PreemptionModel::kPreemptRt,
                             IdleLoad() + StressLoad() + IperfLoad(), 3);
  drone_.controller().SetLatencySampler(&sampler);
  ASSERT_TRUE(TakeoffTo(12.0));
  clock_.RunFor(Seconds(30));
  EXPECT_EQ(drone_.controller().missed_deadlines(), 0u);
  AedResult aed = AnalyzeAttitudeDivergence(drone_.controller().flight_log());
  EXPECT_FALSE(aed.unstable);
}

TEST_F(SitlTest, PreemptKernelMissesSomeDeadlinesButStillFlies) {
  WakeLatencySampler sampler(PreemptionModel::kPreempt,
                             IdleLoad() + StressLoad() + IperfLoad(), 3);
  drone_.controller().SetLatencySampler(&sampler);
  ASSERT_TRUE(TakeoffTo(12.0));
  clock_.RunFor(Seconds(60));
  // Occasional misses occur but are rare enough not to destabilize
  // (paper: "occasionally missing ArduPilot's fast loop deadline will not
  // cause significant stability issues").
  EXPECT_GT(drone_.controller().fast_loop_count(), 20000u);
  double miss_rate =
      static_cast<double>(drone_.controller().missed_deadlines()) /
      static_cast<double>(drone_.controller().fast_loop_count());
  EXPECT_LT(miss_rate, 0.001);
  AedResult aed = AnalyzeAttitudeDivergence(drone_.controller().flight_log());
  EXPECT_FALSE(aed.unstable);
}

TEST_F(SitlTest, StatusTextsNarrateTheFlight) {
  ASSERT_TRUE(TakeoffTo(10.0));
  bool saw_arming = false;
  for (const std::string& text : drone_.status_texts()) {
    if (text.find("Arming") != std::string::npos) {
      saw_arming = true;
    }
  }
  EXPECT_TRUE(saw_arming);
}

TEST_F(SitlTest, AutoMissionFliesWaypoints) {
  ASSERT_TRUE(TakeoffTo(15.0));
  std::vector<GeoPoint> mission{
      FromNed(kHome, NedPoint{40, 0, -15}),
      FromNed(kHome, NedPoint{40, 40, -15}),
  };
  drone_.controller().SetMission(mission);
  SetMode sm;
  sm.custom_mode = static_cast<uint32_t>(CopterMode::kAuto);
  drone_.controller().HandleFrame(PackMessage(MavMessage{sm}));
  EXPECT_TRUE(drone_.RunUntil(
      [&] { return drone_.controller().mode() == CopterMode::kLoiter; },
      Seconds(180)));
  EXPECT_LT(drone_.DistanceTo(mission.back()), 5.0);
}

}  // namespace
}  // namespace androne
