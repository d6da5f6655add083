#include "src/flight/flight_log.h"

#include <algorithm>
#include <cmath>

#include "src/util/bytes.h"

namespace androne {

namespace {
// Wraps into [-180, 180] with WrapPi's shape: the plain loop up to
// |deg| = 1e5 (bit-identical there), std::remainder first above it, where
// the loop would cost O(|deg|) and never end once deg - 360 == deg.
double WrapDeg(double deg) {
  if (std::fabs(deg) > 1e5) {
    deg = std::remainder(deg, 360.0);
  }
  while (deg > 180) {
    deg -= 360;
  }
  while (deg < -180) {
    deg += 360;
  }
  return deg;
}
}  // namespace

AedResult AnalyzeAttitudeDivergence(const FlightLog& log, double threshold_deg,
                                    SimDuration max_span) {
  AedResult result;
  constexpr double kRadToDegLocal = 57.29577951308232;
  SimTime span_start = -1;
  for (const FlightLogEntry& e : log.entries()) {
    double droll = WrapDeg((e.est_roll_rad - e.true_roll_rad) * kRadToDegLocal);
    double dpitch =
        WrapDeg((e.est_pitch_rad - e.true_pitch_rad) * kRadToDegLocal);
    double dyaw = WrapDeg((e.est_yaw_rad - e.true_yaw_rad) * kRadToDegLocal);
    double divergence =
        std::max({std::fabs(droll), std::fabs(dpitch), std::fabs(dyaw)});
    result.worst_divergence_deg =
        std::max(result.worst_divergence_deg, divergence);
    if (divergence > threshold_deg) {
      if (span_start < 0) {
        span_start = e.time;
      }
      result.worst_span = std::max(result.worst_span, e.time - span_start);
    } else {
      span_start = -1;
    }
  }
  result.unstable = result.worst_span > max_span;
  return result;
}

uint64_t FlightLogDigest(const FlightLog& log) {
  // Hash field-by-field rather than memcpy'ing the struct: padding bytes are
  // indeterminate and would make the digest non-reproducible.
  uint64_t h = Fnv1a64Value(log.entries().size());
  for (const FlightLogEntry& e : log.entries()) {
    h = Fnv1a64Value(e.time, h);
    h = Fnv1a64Value(e.est_roll_rad, h);
    h = Fnv1a64Value(e.est_pitch_rad, h);
    h = Fnv1a64Value(e.est_yaw_rad, h);
    h = Fnv1a64Value(e.true_roll_rad, h);
    h = Fnv1a64Value(e.true_pitch_rad, h);
    h = Fnv1a64Value(e.true_yaw_rad, h);
    h = Fnv1a64Value(e.altitude_m, h);
    h = Fnv1a64Value(e.mode, h);
    h = Fnv1a64Value(static_cast<uint8_t>(e.armed), h);
  }
  return h;
}

}  // namespace androne
