// Single-writer sensor snapshot bus. The device container samples each
// sensor at its native cadence and publishes one versioned snapshot; the
// flight stack, the estimator, and every virtual-drone tenant read the
// snapshot by reference instead of drawing their own copies through
// per-read device I/O (paper Figure 3's device container fanning sensor
// data out to N consumers).
//
// Concurrency model: a seqlock. The writer bumps the sequence to odd,
// mutates the slot, and bumps it to even; readers copy the slot and retry
// if the sequence was odd or moved underneath them. Within one simulated
// world everything runs on that world's SimClock thread, so the retry loop
// never spins in practice — the seqlock is there so the protocol stays
// correct (and TSan-explainable) if a snapshot consumer is ever moved off
// the world thread, and so the version counter doubles as a freshness
// token readers can use to skip work when nothing changed.
#ifndef SRC_HW_SENSOR_BUS_H_
#define SRC_HW_SENSOR_BUS_H_

#include <atomic>
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

  // --- Writer side (single writer: the device container's sampler) ---

  // Opens a write section: returns the mutable slot after bumping the
  // sequence to odd. Must be paired with EndPublish on the same thread.
  SensorSnapshot* BeginPublish();
  // Closes the write section (sequence becomes even = stable).
  void EndPublish();

  // --- Reader side ---

  // Copies the latest stable snapshot into |out| and returns the (even)
  // version it carried. Retries while the writer is mid-publish.
  uint64_t Read(SensorSnapshot* out) const;

  // Borrow the slot without copying — valid only on the writer's thread
  // (the single-threaded per-world hot path; this is the "read by
  // reference" fast path).
  const SensorSnapshot& latest() const { return slot_; }

  // Version of the latest stable snapshot (even; 0 = never published).
  uint64_t version() const {
    return sequence_.load(std::memory_order_acquire);
  }

  uint64_t publishes() const { return publishes_; }
  uint64_t reader_retries() const {
    return reader_retries_.load(std::memory_order_relaxed);
  }

  // Checkpoint/restore (DESIGN.md §13). Saved between publishes, so the
  // sequence is always even at capture time; an odd one would leave every
  // reader spinning, so restore rejects it.
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("SBUS");
    uint64_t sequence = sequence_.load(std::memory_order_acquire);
    ar.U64(sequence);
    if (sequence & 1) {
      ar.Fail(InvalidArgumentError("sensor bus checkpoint caught mid-publish"));
    }
    VisitValue(ar, slot_.imu);
    VisitValue(ar, slot_.gps);
    ar.F64(slot_.baro_altitude_m);
    ar.F64(slot_.mag_heading_rad);
    ar.I64(slot_.baro_mag_time);
    ar.I64(slot_.publish_time);
    ar.U64(publishes_);
    uint64_t retries = reader_retries_.load(std::memory_order_relaxed);
    ar.U64(retries);
    if constexpr (Ar::kLoading) {
      if (ar.ok()) {
        reader_retries_.store(retries, std::memory_order_relaxed);
        sequence_.store(sequence, std::memory_order_release);
      }
    }
    return ar.status();
  }

 private:
  std::atomic<uint64_t> sequence_{0};  // Odd while a publish is in flight.
  SensorSnapshot slot_;
  uint64_t publishes_ = 0;
  mutable std::atomic<uint64_t> reader_retries_{0};
};

// Cadence for the hub below; defaults mirror the flight controller's sensor
// schedule (IMU every tick at 400 Hz, baro/mag 25 Hz, GPS 5 Hz).
struct SensorHubConfig {
  SimDuration slow_period = Millis(40);  // Barometer + magnetometer.
  SimDuration gps_period = Millis(200);
};

// The device container's sampler: owns the bus, draws each sensor at its
// native rate, and publishes one snapshot per sim instant at most. All
// consumers (SensorService, LocationManagerService, the flight stack's
// BusSensorSource) call Refresh() and read the same snapshot — N tenants
// cost one device sample instead of N.
class SensorHub {
 public:
  SensorHub(SimClock* clock, GpsReceiver* gps, Imu* imu, Barometer* baro,
            Magnetometer* mag, ContainerId opener,
            SensorHubConfig config = {});

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
  SensorHubConfig config_;
  SensorBus bus_;
  SimTime last_imu_time_ = -Seconds(1);
  SimTime last_slow_time_ = -Seconds(1);
  SimTime last_gps_time_ = -Seconds(1);
  uint64_t samples_drawn_ = 0;
};

}  // namespace androne

#endif  // SRC_HW_SENSOR_BUS_H_
