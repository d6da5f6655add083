// Geodesy helpers. Virtual drone waypoints and geofences are specified as
// latitude/longitude/altitude (paper §3); flight control operates on local
// NED (north-east-down) coordinates around a home position.
#ifndef SRC_UTIL_GEO_H_
#define SRC_UTIL_GEO_H_

#include <cmath>
#include <string>

namespace androne {

// WGS-84 mean Earth radius, meters — sufficient for the sub-kilometer
// geofences AnDrone uses.
inline constexpr double kEarthRadiusM = 6371000.0;
inline constexpr double kDegToRad = 0.017453292519943295;
inline constexpr double kRadToDeg = 57.29577951308232;

// Wraps |a| radians into [-pi, pi]. Up to |a| = 1e3 it is the plain
// subtract-2*pi loop, whose exact rounding the digested control and
// estimation paths depend on. Beyond that std::remainder reduces |a| first:
// the loop costs O(|a|) and never ends once a - 2*pi == a, and a
// sensor-fault bias can push a heading that far.
inline double WrapPi(double a) {
  if (std::fabs(a) > 1e3) {
    a = std::remainder(a, 2 * M_PI);
  }
  while (a > M_PI) {
    a -= 2 * M_PI;
  }
  while (a < -M_PI) {
    a += 2 * M_PI;
  }
  return a;
}

// A geodetic position. Altitude is meters above the home/takeoff plane.
struct GeoPoint {
  double latitude_deg = 0.0;
  double longitude_deg = 0.0;
  double altitude_m = 0.0;

  std::string ToString() const;

  friend bool operator==(const GeoPoint& a, const GeoPoint& b) = default;
};

// A position in the local north-east-down frame, meters.
struct NedPoint {
  double north_m = 0.0;
  double east_m = 0.0;
  double down_m = 0.0;

  friend bool operator==(const NedPoint& a, const NedPoint& b) = default;
};

// Great-circle ground distance in meters (haversine), ignoring altitude.
double HaversineMeters(const GeoPoint& a, const GeoPoint& b);

// Full 3-D separation: sqrt(ground^2 + dAlt^2).
double Distance3dMeters(const GeoPoint& a, const GeoPoint& b);

// Initial great-circle bearing from |from| to |to|, degrees in [0, 360).
double BearingDeg(const GeoPoint& from, const GeoPoint& to);

// The local tangent plane around a fixed |origin| (small-angle
// approximation; fine for <10 km extents). cos(origin latitude) is computed
// once, so callers that convert against one origin every tick (home, for
// the flight stack) pay it once per flight.
class NedFrame {
 public:
  explicit NedFrame(const GeoPoint& origin);

  const GeoPoint& origin() const { return origin_; }

  // Converts |p| to NED coordinates relative to origin().
  NedPoint ToNed(const GeoPoint& p) const;
  // Inverse of ToNed.
  GeoPoint FromNed(const NedPoint& ned) const;

 private:
  GeoPoint origin_;
  double coslat_;
};

// One-off conversions around an origin that moves (dead reckoning, sensor
// synthesis); same results as NedFrame(origin).
NedPoint ToNed(const GeoPoint& origin, const GeoPoint& p);
GeoPoint FromNed(const GeoPoint& origin, const NedPoint& ned);

// Moves from |from| toward |to| by |distance_m| along the ground track,
// interpolating altitude proportionally. If |distance_m| exceeds the
// separation, returns |to|.
GeoPoint MoveToward(const GeoPoint& from, const GeoPoint& to,
                    double distance_m);

// Snapshot visitors (DESIGN.md §13): each point lists its fields once for
// both snapshot archives.
template <class Ar>
void VisitValue(Ar& ar, GeoPoint& p) {
  ar.F64(p.latitude_deg);
  ar.F64(p.longitude_deg);
  ar.F64(p.altitude_m);
}

template <class Ar>
void VisitValue(Ar& ar, NedPoint& p) {
  ar.F64(p.north_m);
  ar.F64(p.east_m);
  ar.F64(p.down_m);
}

}  // namespace androne

#endif  // SRC_UTIL_GEO_H_
