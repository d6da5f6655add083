// Sensor access seam for the flight controller. On AnDrone the flight
// container has no direct device access — it reads the snapshot the device
// container's SensorHub publishes (BusSensorSource, paper §4.3). For unit
// tests and standalone SITL runs a direct in-process source is provided.
#ifndef SRC_FLIGHT_SENSOR_SOURCE_H_
#define SRC_FLIGHT_SENSOR_SOURCE_H_

#include "src/hw/sensor_bus.h"
#include "src/hw/sensor_faults.h"
#include "src/hw/sensors.h"
#include "src/util/status.h"

namespace androne {

class SensorSource {
 public:
  virtual ~SensorSource() = default;
  virtual StatusOr<ImuSample> ReadImu() = 0;
  virtual StatusOr<double> ReadBaroAltitude() = 0;
  virtual StatusOr<double> ReadMagHeading() = 0;
  virtual StatusOr<GpsFix> ReadGps() = 0;
};

// Reads hardware models directly (standalone SITL / tests).
class DirectSensorSource : public SensorSource {
 public:
  DirectSensorSource(GpsReceiver* gps, Imu* imu, Barometer* baro,
                     Magnetometer* mag, ContainerId opener)
      : gps_(gps), imu_(imu), baro_(baro), mag_(mag), opener_(opener) {}

  StatusOr<ImuSample> ReadImu() override { return imu_->ReadSample(opener_); }
  StatusOr<double> ReadBaroAltitude() override {
    return baro_->ReadAltitudeM(opener_);
  }
  StatusOr<double> ReadMagHeading() override {
    return mag_->ReadHeadingRad(opener_);
  }
  StatusOr<GpsFix> ReadGps() override { return gps_->ReadFix(opener_); }

 private:
  GpsReceiver* gps_;
  Imu* imu_;
  Barometer* baro_;
  Magnetometer* mag_;
  ContainerId opener_;
};

// Reads the device container's SensorHub snapshot: the hub samples each
// sensor once at its native cadence and the flight stack reads the
// published snapshot by reference, with no binder transaction or parcel
// decode per read. Composes under FaultySensorSource like any other source.
class BusSensorSource : public SensorSource {
 public:
  explicit BusSensorSource(SensorHub* hub) : hub_(hub) {}

  StatusOr<ImuSample> ReadImu() override { return hub_->Sample().imu; }
  StatusOr<double> ReadBaroAltitude() override {
    return hub_->Sample().baro_altitude_m;
  }
  StatusOr<double> ReadMagHeading() override {
    return hub_->Sample().mag_heading_rad;
  }
  StatusOr<GpsFix> ReadGps() override { return hub_->Sample().gps; }

 private:
  SensorHub* hub_;
};

// Decorates any SensorSource with a scripted SensorFaultInjector. Dropout
// windows surface as UNAVAILABLE — the same shape as a real HAL read
// failing — so the flight stack exercises its degraded paths, not a
// special-cased fault API.
class FaultySensorSource : public SensorSource {
 public:
  FaultySensorSource(SensorSource* base, SensorFaultInjector* injector)
      : base_(base), injector_(injector) {}

  StatusOr<ImuSample> ReadImu() override {
    StatusOr<ImuSample> sample = base_->ReadImu();
    if (sample.ok() && !injector_->ApplyImu(&*sample)) {
      return UnavailableError("imu dropout");
    }
    return sample;
  }

  StatusOr<double> ReadBaroAltitude() override {
    StatusOr<double> altitude = base_->ReadBaroAltitude();
    if (altitude.ok() && !injector_->ApplyBaro(&*altitude)) {
      return UnavailableError("baro dropout");
    }
    return altitude;
  }

  StatusOr<double> ReadMagHeading() override {
    StatusOr<double> heading = base_->ReadMagHeading();
    if (heading.ok() && !injector_->ApplyMag(&*heading)) {
      return UnavailableError("mag dropout");
    }
    return heading;
  }

  StatusOr<GpsFix> ReadGps() override {
    StatusOr<GpsFix> fix = base_->ReadGps();
    if (fix.ok() && !injector_->ApplyGps(&*fix)) {
      return UnavailableError("gps dropout");
    }
    return fix;
  }

 private:
  SensorSource* base_;
  SensorFaultInjector* injector_;
};

}  // namespace androne

#endif  // SRC_FLIGHT_SENSOR_SOURCE_H_
