// Snapshot visitors for the hw-layer sensor value types (DESIGN.md §13),
// shared by the snapshot bus, the fault injector's stuck-value latches and
// the flight stack. Each lists its fields once for both snapshot archives.
#ifndef SRC_HW_SENSOR_IO_H_
#define SRC_HW_SENSOR_IO_H_

#include "src/hw/sensors.h"
#include "src/util/geo.h"

namespace androne {

template <class Ar>
void VisitValue(Ar& ar, GpsFix& fix) {
  VisitValue(ar, fix.position);
  VisitValue(ar, fix.velocity_ms);
  ar.U32(fix.satellites);
  ar.Bool(fix.has_fix);
  ar.I64(fix.timestamp);
}

template <class Ar>
void VisitValue(Ar& ar, ImuSample& s) {
  for (double& v : s.gyro_rads) {
    ar.F64(v);
  }
  for (double& v : s.accel_mss) {
    ar.F64(v);
  }
  ar.I64(s.timestamp);
}

}  // namespace androne

#endif  // SRC_HW_SENSOR_IO_H_
