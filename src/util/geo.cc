#include "src/util/geo.h"

#include <cmath>
#include <cstdio>

#include "src/util/detmath.h"

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
  double sin_half_dlat = detmath::Sin(dlat / 2);
  double sin_half_dlon = detmath::Sin(dlon / 2);
  double h = sin_half_dlat * sin_half_dlat +
             detmath::Cos(lat1) * detmath::Cos(lat2) * sin_half_dlon *
                 sin_half_dlon;
  return 2.0 * kEarthRadiusM * detmath::Asin(std::min(1.0, std::sqrt(h)));
}

double Distance3dMeters(const GeoPoint& a, const GeoPoint& b) {
  double ground = HaversineMeters(a, b);
  double dalt = b.altitude_m - a.altitude_m;
  return detmath::Hypot(ground, dalt);
}

double BearingDeg(const GeoPoint& from, const GeoPoint& to) {
  double lat1 = from.latitude_deg * kDegToRad;
  double lat2 = to.latitude_deg * kDegToRad;
  double dlon = (to.longitude_deg - from.longitude_deg) * kDegToRad;
  double sin_lat1, cos_lat1, sin_lat2, cos_lat2, sin_dlon, cos_dlon;
  detmath::SinCos(lat1, &sin_lat1, &cos_lat1);
  detmath::SinCos(lat2, &sin_lat2, &cos_lat2);
  detmath::SinCos(dlon, &sin_dlon, &cos_dlon);
  double y = sin_dlon * cos_lat2;
  double x = cos_lat1 * sin_lat2 - sin_lat1 * cos_lat2 * cos_dlon;
  double bearing = detmath::Atan2(y, x) * kRadToDeg;
  if (bearing < 0) {
    bearing += 360.0;
  }
  return bearing;
}

NedFrame::NedFrame(const GeoPoint& origin)
    : origin_(origin), coslat_(detmath::Cos(origin.latitude_deg * kDegToRad)) {}

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
