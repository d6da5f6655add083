#include "src/util/geo.h"

#include <cmath>
#include <cstdio>

namespace androne {

std::string GeoPoint::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(%.7f, %.7f, %.1fm)", latitude_deg,
                longitude_deg, altitude_m);
  return buf;
}

double HaversineMeters(const GeoPoint& a, const GeoPoint& b) {
  double lat1 = a.latitude_deg * kDegToRad;
  double lat2 = b.latitude_deg * kDegToRad;
  double dlat = (b.latitude_deg - a.latitude_deg) * kDegToRad;
  double dlon = (b.longitude_deg - a.longitude_deg) * kDegToRad;
  double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
             std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) *
                 std::sin(dlon / 2);
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(h)));
}

double Distance3dMeters(const GeoPoint& a, const GeoPoint& b) {
  double ground = HaversineMeters(a, b);
  double dalt = b.altitude_m - a.altitude_m;
  return std::sqrt(ground * ground + dalt * dalt);
}

double BearingDeg(const GeoPoint& from, const GeoPoint& to) {
  double lat1 = from.latitude_deg * kDegToRad;
  double lat2 = to.latitude_deg * kDegToRad;
  double dlon = (to.longitude_deg - from.longitude_deg) * kDegToRad;
  double y = std::sin(dlon) * std::cos(lat2);
  double x = std::cos(lat1) * std::sin(lat2) -
             std::sin(lat1) * std::cos(lat2) * std::cos(dlon);
  double bearing = std::atan2(y, x) * kRadToDeg;
  if (bearing < 0) {
    bearing += 360.0;
  }
  return bearing;
}

NedFrame::NedFrame(const GeoPoint& origin)
    : origin_(origin), coslat_(std::cos(origin.latitude_deg * kDegToRad)) {}

NedPoint NedFrame::ToNed(const GeoPoint& p) const {
  double dlat = (p.latitude_deg - origin_.latitude_deg) * kDegToRad;
  double dlon = (p.longitude_deg - origin_.longitude_deg) * kDegToRad;
  return NedPoint{
      .north_m = dlat * kEarthRadiusM,
      .east_m = dlon * kEarthRadiusM * coslat_,
      .down_m = -(p.altitude_m - origin_.altitude_m),
  };
}

GeoPoint NedFrame::FromNed(const NedPoint& ned) const {
  return GeoPoint{
      .latitude_deg =
          origin_.latitude_deg + (ned.north_m / kEarthRadiusM) * kRadToDeg,
      .longitude_deg = origin_.longitude_deg +
                       (ned.east_m / (kEarthRadiusM * coslat_)) * kRadToDeg,
      .altitude_m = origin_.altitude_m - ned.down_m,
  };
}

NedPoint ToNed(const GeoPoint& origin, const GeoPoint& p) {
  return NedFrame(origin).ToNed(p);
}

GeoPoint FromNed(const GeoPoint& origin, const NedPoint& ned) {
  return NedFrame(origin).FromNed(ned);
}

GeoPoint MoveToward(const GeoPoint& from, const GeoPoint& to,
                    double distance_m) {
  double total = Distance3dMeters(from, to);
  if (total <= distance_m || total <= 1e-9) {
    return to;
  }
  double f = distance_m / total;
  return GeoPoint{
      .latitude_deg =
          from.latitude_deg + f * (to.latitude_deg - from.latitude_deg),
      .longitude_deg =
          from.longitude_deg + f * (to.longitude_deg - from.longitude_deg),
      .altitude_m = from.altitude_m + f * (to.altitude_m - from.altitude_m),
  };
}

}  // namespace androne
