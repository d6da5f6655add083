#include "src/hw/sensor_bus.h"

namespace androne {

SensorHub::SensorHub(SimClock* clock, GpsReceiver* gps, Imu* imu,
                     Barometer* baro, Magnetometer* mag, ContainerId opener,
                     SensorHubConfig config)
    : clock_(clock),
      gps_(gps),
      imu_(imu),
      baro_(baro),
      mag_(mag),
      opener_(opener),
      config_(config) {}

Status SensorHub::Refresh() {
  SimTime now = clock_->now();
  bool imu_due = imu_ != nullptr && now != last_imu_time_;
  bool slow_due = (baro_ != nullptr || mag_ != nullptr) &&
                  now - last_slow_time_ >= config_.slow_period;
  bool gps_due = gps_ != nullptr && now - last_gps_time_ >= config_.gps_period;
  if (!imu_due && !slow_due && !gps_due) {
    return OkStatus();
  }

  Status first_error = OkStatus();
  auto note = [&first_error](const Status& s) {
    if (first_error.ok() && !s.ok()) {
      first_error = s;
    }
  };

  SensorSnapshot* slot = &bus_.slot_;
  if (imu_due) {
    last_imu_time_ = now;
    auto sample = imu_->ReadSample(opener_);
    note(sample.status());
    if (sample.ok()) {
      slot->imu = *sample;
      ++samples_drawn_;
    }
  }
  if (slow_due) {
    last_slow_time_ = now;
    auto altitude = baro_ != nullptr ? baro_->ReadAltitudeM(opener_)
                                     : StatusOr<double>(slot->baro_altitude_m);
    note(altitude.status());
    if (altitude.ok()) {
      slot->baro_altitude_m = *altitude;
      ++samples_drawn_;
    }
    auto heading = mag_ != nullptr ? mag_->ReadHeadingRad(opener_)
                                   : StatusOr<double>(slot->mag_heading_rad);
    note(heading.status());
    if (heading.ok()) {
      slot->mag_heading_rad = *heading;
      ++samples_drawn_;
    }
    slot->baro_mag_time = now;
  }
  if (gps_due) {
    last_gps_time_ = now;
    auto fix = gps_->ReadFix(opener_);
    note(fix.status());
    if (fix.ok()) {
      slot->gps = *fix;
      ++samples_drawn_;
    }
  }
  slot->publish_time = now;
  ++bus_.publishes_;
  return first_error;
}

}  // namespace androne
