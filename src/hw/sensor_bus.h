// Single-writer sensor snapshot bus. The device container samples each
// sensor at its native cadence and publishes one snapshot; the flight
// stack, the estimator, and every virtual-drone tenant read the snapshot by
// reference instead of drawing their own copies through per-read device
// I/O (paper Figure 3's device container fanning sensor data out to N
// consumers). Everything in one simulated world runs on that world's
// SimClock thread, so the slot is a plain struct: its one writer is the
// SensorHub below, and readers borrow latest().
#ifndef SRC_HW_SENSOR_BUS_H_
#define SRC_HW_SENSOR_BUS_H_

#include <cstdint>

#include "src/hw/sensor_io.h"
#include "src/hw/sensors.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"

namespace androne {

// One coherent view of every flight sensor. Field timestamps are the sim
// times the underlying devices stamped at sampling, so consumers see each
// sensor's native cadence even though the snapshot itself may republish.
struct SensorSnapshot {
  ImuSample imu;
  GpsFix gps;
  double baro_altitude_m = 0;
  double mag_heading_rad = 0;
  SimTime baro_mag_time = 0;  // When baro/mag were last sampled.
  SimTime publish_time = 0;   // When this snapshot was published.
};

class SensorBus {
 public:
  SensorBus() = default;
  SensorBus(const SensorBus&) = delete;
  SensorBus& operator=(const SensorBus&) = delete;

  // The latest published snapshot, by reference.
  const SensorSnapshot& latest() const { return slot_; }

  uint64_t publishes() const { return publishes_; }

  // Checkpoint/restore (DESIGN.md §13).
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("SBUS");
    VisitValue(ar, slot_.imu);
    VisitValue(ar, slot_.gps);
    ar.F64(slot_.baro_altitude_m);
    ar.F64(slot_.mag_heading_rad);
    ar.I64(slot_.baro_mag_time);
    ar.I64(slot_.publish_time);
    ar.U64(publishes_);
    return ar.status();
  }

 private:
  friend class SensorHub;  // The one writer.

  SensorSnapshot slot_;
  uint64_t publishes_ = 0;
};

// The device container's sampler: owns the bus, draws each sensor at its
// native rate, and publishes one snapshot per sim instant at most. All
// consumers (SensorService, LocationManagerService, the flight stack's
// BusSensorSource) call Refresh() and read the same snapshot — N tenants
// cost one device sample instead of N.
class SensorHub {
 public:
  SensorHub(SimClock* clock, GpsReceiver* gps, Imu* imu, Barometer* baro,
            Magnetometer* mag, ContainerId opener);

  // Samples whatever is due at the current sim time and publishes. Cheap
  // when nothing is due (one time compare). Returns the first device error
  // encountered; later sensors are still attempted.
  Status Refresh();

  SensorBus& bus() { return bus_; }
  const SensorBus& bus() const { return bus_; }

  // Refresh() + borrow the published snapshot (single-threaded fast path).
  const SensorSnapshot& Sample() {
    (void)Refresh();
    return bus_.latest();
  }

  uint64_t samples_drawn() const { return samples_drawn_; }

  // Checkpoint/restore: the cadence bookkeeping plus the published slot.
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("SHUB");
    RETURN_IF_ERROR(bus_.Visit(ar));
    ar.I64(last_imu_time_);
    ar.I64(last_slow_time_);
    ar.I64(last_gps_time_);
    ar.U64(samples_drawn_);
    return ar.status();
  }

 private:
  SimClock* clock_;
  GpsReceiver* gps_;
  Imu* imu_;
  Barometer* baro_;
  Magnetometer* mag_;
  ContainerId opener_;
  SensorBus bus_;
  SimTime last_imu_time_ = -Seconds(1);
  SimTime last_slow_time_ = -Seconds(1);
  SimTime last_gps_time_ = -Seconds(1);
  uint64_t samples_drawn_ = 0;
};

}  // namespace androne

#endif  // SRC_HW_SENSOR_BUS_H_
