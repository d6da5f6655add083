// Sensor device models: GPS, IMU (gyro + accelerometer), barometer,
// magnetometer, microphone. Each reads the shared DroneGroundTruth with
// sensor-appropriate noise, standing in for the Navio2 daughterboard's
// sensor suite (paper §6).
#ifndef SRC_HW_SENSORS_H_
#define SRC_HW_SENSORS_H_

#include <array>

#include "src/hw/device.h"
#include "src/hw/ground_truth.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"

namespace androne {

// Canonical device names on the bus.
inline constexpr char kGpsDeviceName[] = "gps";
inline constexpr char kImuDeviceName[] = "imu";
inline constexpr char kBarometerDeviceName[] = "barometer";
inline constexpr char kMagnetometerDeviceName[] = "magnetometer";
inline constexpr char kMicrophoneDeviceName[] = "microphone";

struct GpsFix {
  GeoPoint position;
  NedPoint velocity_ms;
  int satellites = 0;
  bool has_fix = false;
  SimTime timestamp = 0;
};

class GpsReceiver : public HardwareDevice {
 public:
  GpsReceiver(SimClock* clock, const DroneGroundTruth* truth, uint64_t seed);

  // Latest fix as of now; position noise ~1.2 m horizontal CEP.
  StatusOr<GpsFix> ReadFix(ContainerId caller);

  void set_satellites(int n) { satellites_ = n; }

  // The noise stream is world state: a restored world must continue drawing
  // the same sensor noise sequence (DESIGN.md §13). Re-seeded at the
  // template fork point (AnDroneSystem::ReseedStreams).
  Rng& checkpoint_rng() { return rng_; }
  template <class Ar>
  Status Visit(Ar& ar) {
    rng_.Visit(ar);
    ar.U32(satellites_);
    return ar.status();
  }

 private:
  SimClock* clock_;
  const DroneGroundTruth* truth_;
  Rng rng_;
  int satellites_ = 11;
};

struct ImuSample {
  std::array<double, 3> gyro_rads;   // roll, pitch, yaw rates.
  std::array<double, 3> accel_mss;   // body-frame specific force.
  SimTime timestamp = 0;
};

class Imu : public HardwareDevice {
 public:
  Imu(SimClock* clock, const DroneGroundTruth* truth, uint64_t seed);
  StatusOr<ImuSample> ReadSample(ContainerId caller);

  Rng& checkpoint_rng() { return rng_; }

 private:
  SimClock* clock_;
  const DroneGroundTruth* truth_;
  Rng rng_;
};

class Barometer : public HardwareDevice {
 public:
  Barometer(SimClock* clock, const DroneGroundTruth* truth, uint64_t seed);
  // Altitude above home, meters, with ~0.1 m noise.
  StatusOr<double> ReadAltitudeM(ContainerId caller);

  Rng& checkpoint_rng() { return rng_; }

 private:
  SimClock* clock_;
  const DroneGroundTruth* truth_;
  Rng rng_;
};

class Magnetometer : public HardwareDevice {
 public:
  Magnetometer(SimClock* clock, const DroneGroundTruth* truth, uint64_t seed);
  // Heading in radians (0 = north), with small noise.
  StatusOr<double> ReadHeadingRad(ContainerId caller);

  Rng& checkpoint_rng() { return rng_; }

 private:
  SimClock* clock_;
  const DroneGroundTruth* truth_;
  Rng rng_;
};

class Microphone : public HardwareDevice {
 public:
  explicit Microphone(SimClock* clock);
  // Returns |samples| synthetic PCM samples.
  StatusOr<std::vector<int16_t>> Record(ContainerId caller, size_t samples);

  template <class Ar>
  Status Visit(Ar& ar) {
    ar.U64(phase_);
    return ar.status();
  }

 private:
  SimClock* clock_;
  uint64_t phase_ = 0;
};

inline constexpr char kSpeakerDeviceName[] = "speaker";

// Output side of AudioFlinger's device pair (drones use it for sirens and
// voice prompts in e.g. emergency-assist apps).
class Speaker : public HardwareDevice {
 public:
  Speaker() : HardwareDevice(kSpeakerDeviceName) {}

  // "Plays" |samples| PCM samples (accounted, not rendered).
  Status Play(ContainerId caller, size_t samples);

  template <class Ar>
  Status Visit(Ar& ar) {
    ar.U64(samples_played_);
    return ar.status();
  }

 private:
  uint64_t samples_played_ = 0;
};

}  // namespace androne

#endif  // SRC_HW_SENSORS_H_
