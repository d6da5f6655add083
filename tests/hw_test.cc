#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/hw/camera.h"
#include "src/hw/device.h"
#include "src/hw/ground_truth.h"
#include "src/hw/motors.h"
#include "src/hw/power.h"
#include "src/hw/sensor_bus.h"
#include "src/hw/sensors.h"

namespace androne {
namespace {

constexpr ContainerId kDevCon = 1;
constexpr ContainerId kOther = 2;

class HwFixture : public ::testing::Test {
 protected:
  HwFixture() {
    truth_.position = GeoPoint{43.6084298, -85.8110359, 15.0};
    truth_.yaw_rad = 1.0;
  }

  SimClock clock_;
  DroneGroundTruth truth_;
};

TEST_F(HwFixture, ExclusiveOpenSemantics) {
  GpsReceiver gps(&clock_, &truth_, 1);
  EXPECT_TRUE(gps.Open(kDevCon).ok());
  EXPECT_EQ(gps.Open(kOther).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(gps.Close(kOther).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(gps.Close(kDevCon).ok());
  EXPECT_TRUE(gps.Open(kOther).ok());
}

TEST_F(HwFixture, ReadWithoutOpenDenied) {
  GpsReceiver gps(&clock_, &truth_, 1);
  EXPECT_EQ(gps.ReadFix(kDevCon).status().code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(gps.Open(kDevCon).ok());
  EXPECT_EQ(gps.ReadFix(kOther).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(gps.ReadFix(kDevCon).ok());
}

TEST_F(HwFixture, GpsFixNearTruth) {
  GpsReceiver gps(&clock_, &truth_, 42);
  ASSERT_TRUE(gps.Open(kDevCon).ok());
  double worst = 0;
  for (int i = 0; i < 200; ++i) {
    auto fix = gps.ReadFix(kDevCon);
    ASSERT_TRUE(fix.ok());
    EXPECT_TRUE(fix->has_fix);
    worst = std::max(worst, HaversineMeters(fix->position, truth_.position));
  }
  EXPECT_LT(worst, 10.0);  // ~1.2 m sigma noise.
  EXPECT_GT(worst, 0.01);  // But not noiseless.
}

TEST_F(HwFixture, GpsLosesFixWithFewSatellites) {
  GpsReceiver gps(&clock_, &truth_, 42);
  ASSERT_TRUE(gps.Open(kDevCon).ok());
  gps.set_satellites(3);
  EXPECT_FALSE(gps.ReadFix(kDevCon)->has_fix);
}

TEST_F(HwFixture, ImuReadsRatesAndGravity) {
  truth_.roll_rate_rads = 0.5;
  truth_.pitch_rad = 0.1;
  Imu imu(&clock_, &truth_, 7);
  ASSERT_TRUE(imu.Open(kDevCon).ok());
  double gyro_x = 0, acc_x = 0, acc_z = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    auto s = imu.ReadSample(kDevCon);
    ASSERT_TRUE(s.ok());
    gyro_x += s->gyro_rads[0];
    acc_x += s->accel_mss[0];
    acc_z += s->accel_mss[2];
  }
  EXPECT_NEAR(gyro_x / n, 0.5, 0.01);
  EXPECT_NEAR(acc_x / n, 9.80665 * std::sin(0.1), 0.02);
  EXPECT_NEAR(acc_z / n, -9.80665, 0.05);  // Level hover: -1 g.
}

TEST_F(HwFixture, BarometerTracksAltitude) {
  Barometer baro(&clock_, &truth_, 3);
  ASSERT_TRUE(baro.Open(kDevCon).ok());
  double sum = 0;
  for (int i = 0; i < 200; ++i) {
    sum += baro.ReadAltitudeM(kDevCon).value();
  }
  EXPECT_NEAR(sum / 200, 15.0, 0.1);
}

TEST_F(HwFixture, MagnetometerNormalizedHeading) {
  truth_.yaw_rad = -0.5;  // Negative heading must normalize.
  Magnetometer mag(&clock_, &truth_, 3);
  ASSERT_TRUE(mag.Open(kDevCon).ok());
  for (int i = 0; i < 100; ++i) {
    double h = mag.ReadHeadingRad(kDevCon).value();
    EXPECT_GE(h, 0.0);
    EXPECT_LT(h, 6.2832);
  }
}

TEST_F(HwFixture, CameraFramesAreSequencedAndStamped) {
  Camera cam(&clock_, &truth_);
  ASSERT_TRUE(cam.Open(kDevCon).ok());
  auto f0 = cam.Capture(kDevCon);
  clock_.RunFor(Millis(33));
  auto f1 = cam.Capture(kDevCon);
  ASSERT_TRUE(f0.ok());
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f0->sequence, 0u);
  EXPECT_EQ(f1->sequence, 1u);
  EXPECT_EQ(f1->timestamp - f0->timestamp, Millis(33));
  EXPECT_NE(f0->content_hash, f1->content_hash);
  EXPECT_EQ(f0->width, 3280);
  EXPECT_EQ(f0->camera_position, truth_.position);
}

TEST_F(HwFixture, MicrophoneProducesAudio) {
  Microphone mic(&clock_);
  ASSERT_TRUE(mic.Open(kDevCon).ok());
  auto pcm = mic.Record(kDevCon, 441);
  ASSERT_TRUE(pcm.ok());
  EXPECT_EQ(pcm->size(), 441u);
  bool nonzero = false;
  for (int16_t s : *pcm) {
    nonzero |= s != 0;
  }
  EXPECT_TRUE(nonzero);
}

TEST_F(HwFixture, MotorsRequireArming) {
  MotorSet motors;
  ASSERT_TRUE(motors.Open(kDevCon).ok());
  EXPECT_EQ(motors.SetThrottles(kDevCon, {0.5, 0.5, 0.5, 0.5}).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(motors.Arm(kDevCon).ok());
  EXPECT_TRUE(motors.SetThrottles(kDevCon, {0.5, 0.5, 0.5, 0.5}).ok());
  EXPECT_DOUBLE_EQ(motors.throttles()[0], 0.5);
}

TEST_F(HwFixture, MotorThrottlesClamped) {
  MotorSet motors;
  ASSERT_TRUE(motors.Open(kDevCon).ok());
  ASSERT_TRUE(motors.Arm(kDevCon).ok());
  ASSERT_TRUE(motors.SetThrottles(kDevCon, {-1.0, 2.0, 0.3, 0.7}).ok());
  EXPECT_DOUBLE_EQ(motors.throttles()[0], 0.0);
  EXPECT_DOUBLE_EQ(motors.throttles()[1], 1.0);
}

TEST_F(HwFixture, EmergencyStopAlwaysWorks) {
  MotorSet motors;
  ASSERT_TRUE(motors.Open(kDevCon).ok());
  ASSERT_TRUE(motors.Arm(kDevCon).ok());
  ASSERT_TRUE(motors.SetThrottles(kDevCon, {1, 1, 1, 1}).ok());
  motors.EmergencyStop();
  EXPECT_FALSE(motors.armed());
  EXPECT_DOUBLE_EQ(motors.throttles()[0], 0.0);
}

TEST_F(HwFixture, HardwareBusRegistryAndLookup) {
  HardwareBus bus;
  bus.Register(std::make_unique<Camera>(&clock_, &truth_));
  bus.Register(std::make_unique<MotorSet>());
  EXPECT_TRUE(bus.Find(kCameraDeviceName).ok());
  EXPECT_TRUE(bus.Find(kMotorsDeviceName).ok());
  EXPECT_FALSE(bus.Find("lidar").ok());
  EXPECT_EQ(bus.DeviceNames().size(), 2u);
}

TEST(PowerModelTest, MatchesFig13Calibration) {
  ComputePowerModel model;
  // Stock idle (launcher screen).
  double stock_idle = model.Watts(0.02, 0, 0);
  // AnDrone idle with device+flight containers and 3 virtual drones.
  double androne_idle = model.Watts(0.02, 5, 3);
  EXPECT_NEAR(androne_idle, 1.7, 0.08);
  // Within 3% of stock (Figure 13).
  EXPECT_LT(androne_idle / stock_idle, 1.03);
  // Fully stressed: ~3.4 W regardless of configuration.
  EXPECT_NEAR(model.Watts(1.0, 0, 0), 3.4, 0.1);
  EXPECT_NEAR(model.Watts(1.0, 5, 3), 3.4, 0.15);
}

TEST(BatteryTest, DrainsAndReportsEnergy) {
  Battery battery(1000.0);  // 1 kJ for easy math.
  battery.Drain(100.0, Seconds(2));  // 200 J.
  EXPECT_DOUBLE_EQ(battery.consumed_joules(), 200.0);
  EXPECT_DOUBLE_EQ(battery.remaining_joules(), 800.0);
  EXPECT_FALSE(battery.depleted());
  battery.Drain(1000.0, Seconds(10));  // Over-drain clamps at 0.
  EXPECT_TRUE(battery.depleted());
  EXPECT_DOUBLE_EQ(battery.remaining_joules(), 0.0);
}

TEST(BatteryTest, VoltageSagsWithDischarge) {
  Battery battery(1000.0);
  double full = battery.voltage();
  battery.Drain(100.0, Seconds(5));
  double half = battery.voltage();
  EXPECT_GT(full, half);
  EXPECT_NEAR(full, 12.6, 0.01);
  battery.Drain(1000.0, Seconds(10));
  EXPECT_NEAR(battery.voltage(), 10.5, 0.01);
}

TEST(BatteryTest, NegativeDrawIgnored) {
  Battery battery(1000.0);
  battery.Drain(-50.0, Seconds(10));
  EXPECT_DOUBLE_EQ(battery.consumed_joules(), 0.0);
}

TEST(BatteryTest, RealPackLastsRealisticHoverTime) {
  // Paper: >100 W rotor draw over a ~20 minute flight. 170 W hover on a
  // 199.8 kJ pack -> ~19.6 minutes.
  Battery battery;
  double minutes = battery.capacity_joules() / 170.0 / 60.0;
  EXPECT_GT(minutes, 15.0);
  EXPECT_LT(minutes, 25.0);
}

// ---- Sensor snapshot bus (DESIGN.md §10) ----

class SensorHubFixture : public HwFixture {
 protected:
  SensorHubFixture()
      : gps_(&clock_, &truth_, 11),
        imu_(&clock_, &truth_, 12),
        baro_(&clock_, &truth_, 13),
        mag_(&clock_, &truth_, 14) {
    EXPECT_TRUE(gps_.Open(kDevCon).ok());
    EXPECT_TRUE(imu_.Open(kDevCon).ok());
    EXPECT_TRUE(baro_.Open(kDevCon).ok());
    EXPECT_TRUE(mag_.Open(kDevCon).ok());
  }

  GpsReceiver gps_;
  Imu imu_;
  Barometer baro_;
  Magnetometer mag_;
};

TEST_F(SensorHubFixture, SharedSnapshotCostsOneDrawPerInstant) {
  SensorHub hub(&clock_, &gps_, &imu_, &baro_, &mag_, kDevCon);
  const SensorSnapshot& first = hub.Sample();
  uint64_t drawn = hub.samples_drawn();
  EXPECT_EQ(drawn, 4u);  // All four sensors due on the first refresh.
  EXPECT_EQ(first.publish_time, clock_.now());

  // N more consumers at the same instant share the snapshot: zero draws.
  for (int i = 0; i < 8; ++i) {
    hub.Sample();
  }
  EXPECT_EQ(hub.samples_drawn(), drawn);
  EXPECT_EQ(hub.bus().publishes(), 1u);
}

TEST_F(SensorHubFixture, RespectsPerSensorCadence) {
  SensorHub hub(&clock_, &gps_, &imu_, &baro_, &mag_, kDevCon);
  hub.Sample();  // t=0: imu + baro/mag + gps -> 4 draws.
  ASSERT_EQ(hub.samples_drawn(), 4u);

  clock_.RunFor(Millis(3));  // One 400 Hz tick later: IMU only.
  hub.Sample();
  EXPECT_EQ(hub.samples_drawn(), 5u);

  clock_.RunFor(Millis(37));  // t=40ms: IMU + baro + mag due, GPS not.
  hub.Sample();
  EXPECT_EQ(hub.samples_drawn(), 8u);

  clock_.RunFor(Millis(160));  // t=200ms: everything due again.
  hub.Sample();
  EXPECT_EQ(hub.samples_drawn(), 12u);
  EXPECT_EQ(hub.bus().publishes(), 4u);
}

TEST_F(SensorHubFixture, SnapshotTracksTruthThroughTheBus) {
  truth_.yaw_rad = 0.75;
  SensorHub hub(&clock_, &gps_, &imu_, &baro_, &mag_, kDevCon);
  const SensorSnapshot& snap = hub.Sample();
  EXPECT_TRUE(snap.gps.has_fix);
  EXPECT_LT(HaversineMeters(snap.gps.position, truth_.position), 30.0);
  EXPECT_NEAR(snap.mag_heading_rad, 0.75, 0.2);
  EXPECT_NEAR(snap.baro_altitude_m, truth_.position.altitude_m, 5.0);
}

}  // namespace
}  // namespace androne
