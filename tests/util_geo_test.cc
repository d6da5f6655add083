#include "src/util/geo.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/util/rng.h"

namespace androne {
namespace {

// The two construction-site waypoints from the paper's Figure 2.
const GeoPoint kWaypointA{43.6084298, -85.8110359, 15};
const GeoPoint kWaypointB{43.6076409, -85.8154457, 15};

TEST(GeoTest, HaversineZeroForSamePoint) {
  EXPECT_DOUBLE_EQ(HaversineMeters(kWaypointA, kWaypointA), 0.0);
}

TEST(GeoTest, HaversineKnownDistance) {
  // The Figure 2 waypoints are ~365 m apart on the ground.
  double d = HaversineMeters(kWaypointA, kWaypointB);
  EXPECT_NEAR(d, 365.0, 15.0);
}

TEST(GeoTest, HaversineIsSymmetric) {
  EXPECT_DOUBLE_EQ(HaversineMeters(kWaypointA, kWaypointB),
                   HaversineMeters(kWaypointB, kWaypointA));
}

TEST(GeoTest, Distance3dIncludesAltitude) {
  GeoPoint up = kWaypointA;
  up.altitude_m += 30;
  EXPECT_DOUBLE_EQ(Distance3dMeters(kWaypointA, up), 30.0);
  double ground = HaversineMeters(kWaypointA, kWaypointB);
  GeoPoint high_b = kWaypointB;
  high_b.altitude_m = kWaypointA.altitude_m + 40;
  EXPECT_NEAR(Distance3dMeters(kWaypointA, high_b),
              std::sqrt(ground * ground + 40 * 40), 1e-6);
}

TEST(GeoTest, BearingCardinalDirections) {
  GeoPoint origin{40.0, -74.0, 0};
  GeoPoint north{40.01, -74.0, 0};
  GeoPoint east{40.0, -73.99, 0};
  GeoPoint south{39.99, -74.0, 0};
  GeoPoint west{40.0, -74.01, 0};
  EXPECT_NEAR(BearingDeg(origin, north), 0.0, 0.5);
  EXPECT_NEAR(BearingDeg(origin, east), 90.0, 0.5);
  EXPECT_NEAR(BearingDeg(origin, south), 180.0, 0.5);
  EXPECT_NEAR(BearingDeg(origin, west), 270.0, 0.5);
}

TEST(GeoTest, NedRoundTrip) {
  NedPoint ned{120.0, -40.0, -15.0};
  GeoPoint p = FromNed(kWaypointA, ned);
  NedPoint back = ToNed(kWaypointA, p);
  EXPECT_NEAR(back.north_m, ned.north_m, 1e-6);
  EXPECT_NEAR(back.east_m, ned.east_m, 1e-6);
  EXPECT_NEAR(back.down_m, ned.down_m, 1e-6);
}

TEST(GeoTest, NedMatchesHaversineLocally) {
  NedPoint ned = ToNed(kWaypointA, kWaypointB);
  double ned_ground = std::hypot(ned.north_m, ned.east_m);
  EXPECT_NEAR(ned_ground, HaversineMeters(kWaypointA, kWaypointB), 0.5);
}

// The subtract-2*pi loop WrapPi replaced in the estimator and the
// attitude controller.
double LoopWrap(double a) {
  while (a > M_PI) {
    a -= 2 * M_PI;
  }
  while (a < -M_PI) {
    a += 2 * M_PI;
  }
  return a;
}

TEST(GeoTest, WrapPiMatchesTheLoopBelowTheLimitAndIsBoundedAbove) {
  Rng rng(2026);
  for (int i = 0; i < 100000; ++i) {
    // Mostly near the range the controllers see, some out to the limit.
    double a = i % 4 == 0 ? rng.Uniform(-1e3, 1e3) : rng.Uniform(-20, 20);
    ASSERT_EQ(std::bit_cast<uint64_t>(WrapPi(a)),
              std::bit_cast<uint64_t>(LoopWrap(a)))
        << "a=" << a;
  }
  for (double a : {1e3, -1e3, M_PI, -M_PI, 0.0, -0.0}) {
    EXPECT_EQ(std::bit_cast<uint64_t>(WrapPi(a)),
              std::bit_cast<uint64_t>(LoopWrap(a)))
        << "a=" << a;
  }
  for (double a : {1e20, -1e300, std::numeric_limits<double>::max(),
                   -std::numeric_limits<double>::max(), 1e3 + 1e-9}) {
    double wrapped = WrapPi(a);
    EXPECT_GE(wrapped, -M_PI) << "a=" << a;
    EXPECT_LE(wrapped, M_PI) << "a=" << a;
  }
}

TEST(GeoTest, MoveTowardReachesTarget) {
  GeoPoint p = MoveToward(kWaypointA, kWaypointB, 1e9);
  EXPECT_EQ(p, kWaypointB);
}

TEST(GeoTest, MoveTowardPartialStepShrinksDistance) {
  double total = Distance3dMeters(kWaypointA, kWaypointB);
  GeoPoint p = MoveToward(kWaypointA, kWaypointB, total / 4);
  EXPECT_NEAR(Distance3dMeters(kWaypointA, p), total / 4, 0.5);
  EXPECT_NEAR(Distance3dMeters(p, kWaypointB), 3 * total / 4, 0.5);
}

// Property: repeatedly stepping toward a target always terminates at it.
class GeoMoveTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeoMoveTest, SteppingConvergesToTarget) {
  Rng rng(GetParam());
  GeoPoint from{rng.Uniform(-60, 60), rng.Uniform(-179, 179),
                rng.Uniform(0, 100)};
  GeoPoint to{from.latitude_deg + rng.Uniform(-0.01, 0.01),
              from.longitude_deg + rng.Uniform(-0.01, 0.01),
              rng.Uniform(0, 100)};
  double step = rng.Uniform(5.0, 50.0);
  GeoPoint p = from;
  int guard = 0;
  while (Distance3dMeters(p, to) > 1e-6 && guard++ < 10000) {
    double before = Distance3dMeters(p, to);
    p = MoveToward(p, to, step);
    double after = Distance3dMeters(p, to);
    EXPECT_LT(after, before + 1e-9);
  }
  EXPECT_LT(Distance3dMeters(p, to), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeoMoveTest,
                         ::testing::Range<uint64_t>(1, 17));

}  // namespace
}  // namespace androne
