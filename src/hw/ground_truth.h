// Ground-truth physical state of the drone, produced by the flight physics
// simulation and consumed by the sensor device models. This is the seam that
// replaces real hardware: sensors read (noisy views of) this state exactly
// where real drivers would read registers.
#ifndef SRC_HW_GROUND_TRUTH_H_
#define SRC_HW_GROUND_TRUTH_H_

#include "src/util/geo.h"

namespace androne {

struct DroneGroundTruth {
  GeoPoint position;          // Geodetic position; altitude above home.
  NedPoint velocity_ms;       // NED velocity, m/s.
  double roll_rad = 0.0;
  double pitch_rad = 0.0;
  double yaw_rad = 0.0;       // Heading, 0 = north, positive east.
  double roll_rate_rads = 0.0;
  double pitch_rate_rads = 0.0;
  double yaw_rate_rads = 0.0;
  double accel_up_mss = 0.0;  // Vertical specific force minus gravity.
  double rotor_power_w = 0.0; // Total electrical power drawn by the rotors.
  bool airborne = false;
};

// The one field list of the truth (DESIGN.md §13, §15): physics checkpoints
// and every replay-log tick both walk it.
template <class Ar>
void VisitValue(Ar& ar, DroneGroundTruth& t) {
  VisitValue(ar, t.position);
  VisitValue(ar, t.velocity_ms);
  ar.F64(t.roll_rad);
  ar.F64(t.pitch_rad);
  ar.F64(t.yaw_rad);
  ar.F64(t.roll_rate_rads);
  ar.F64(t.pitch_rate_rads);
  ar.F64(t.yaw_rate_rads);
  ar.F64(t.accel_up_mss);
  ar.F64(t.rotor_power_w);
  ar.Bool(t.airborne);
}

}  // namespace androne

#endif  // SRC_HW_GROUND_TRUTH_H_
