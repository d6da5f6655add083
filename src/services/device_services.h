// The device container's shared system services (paper Table 1):
//   CameraService            -> camera
//   LocationManagerService   -> GPS
//   SensorService            -> IMU, barometer, magnetometer
//   AudioFlinger             -> microphone (speakers are absent on drones)
//
// Each service is the *only* user of its hardware device and multiplexes
// Binder clients from any container, checking device permissions through
// the calling container's own ActivityManager (CrossContainerPermission-
// Checker). Active clients are tracked per container so the VDC can enforce
// revocation by terminating processes that keep using a device after access
// is withdrawn (paper §4.4).
#ifndef SRC_SERVICES_DEVICE_SERVICES_H_
#define SRC_SERVICES_DEVICE_SERVICES_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/binder/binder_driver.h"
#include "src/hw/camera.h"
#include "src/hw/sensor_bus.h"
#include "src/hw/sensors.h"
#include "src/services/activity_manager.h"

namespace androne {

// Registered service names (Android conventions).
inline constexpr char kCameraServiceName[] = "media.camera";
inline constexpr char kLocationServiceName[] = "location";
inline constexpr char kSensorServiceName[] = "sensorservice";
inline constexpr char kAudioServiceName[] = "media.audio_flinger";

// Common client-tracking base for device services.
class DeviceService : public BinderObject {
 public:
  // Containers with at least one active client.
  std::vector<ContainerId> ActiveContainers() const;
  // PIDs from |container| actively using this service (VDC kill list).
  std::vector<Pid> ActivePids(ContainerId container) const;
  // Forgets clients of |container| (after the VDC terminated them).
  void DropClients(ContainerId container);

 protected:
  explicit DeviceService(CrossContainerPermissionChecker checker)
      : checker_(std::move(checker)) {}

  void TrackClient(const BinderCallContext& ctx);
  void UntrackClient(const BinderCallContext& ctx);
  bool CheckPermission(const std::string& permission,
                       const BinderCallContext& ctx) {
    return checker_.Check(permission, ctx);
  }

 private:
  CrossContainerPermissionChecker checker_;
  std::map<ContainerId, std::set<Pid>> clients_;
};

// ---- CameraService ("media.camera") ----
// Codes: connect, capture one frame, disconnect.
inline constexpr uint32_t kCamConnect = 1;
inline constexpr uint32_t kCamCapture = 2;
inline constexpr uint32_t kCamDisconnect = 3;

class CameraService : public DeviceService {
 public:
  CameraService(Camera* camera, CrossContainerPermissionChecker checker)
      : DeviceService(std::move(checker)), camera_(camera) {}

  Status OnTransact(uint32_t code, const Parcel& data, Parcel* reply,
                    const BinderCallContext& ctx) override;
  std::string descriptor() const override { return "CameraService"; }

 private:
  Camera* camera_;
};

// ---- LocationManagerService ("location") ----
inline constexpr uint32_t kLocGetLast = 1;

// Fixes come from the shared SensorHub snapshot, not per-request device
// reads: N tenants share one sample per GPS epoch.
class LocationManagerService : public DeviceService {
 public:
  LocationManagerService(SensorHub* hub,
                         CrossContainerPermissionChecker checker)
      : DeviceService(std::move(checker)), hub_(hub) {}

  Status OnTransact(uint32_t code, const Parcel& data, Parcel* reply,
                    const BinderCallContext& ctx) override;
  std::string descriptor() const override {
    return "LocationManagerService";
  }

 private:
  SensorHub* hub_;
};

// ---- SensorService ("sensorservice") ----
inline constexpr uint32_t kSensorReadImu = 1;
inline constexpr uint32_t kSensorReadBaro = 2;
inline constexpr uint32_t kSensorReadMag = 3;

// Samples come from the shared SensorHub snapshot: each sensor is drawn
// once per cadence period, no matter how many containers poll it.
class SensorService : public DeviceService {
 public:
  SensorService(SensorHub* hub, CrossContainerPermissionChecker checker)
      : DeviceService(std::move(checker)), hub_(hub) {}

  Status OnTransact(uint32_t code, const Parcel& data, Parcel* reply,
                    const BinderCallContext& ctx) override;
  std::string descriptor() const override { return "SensorService"; }

 private:
  SensorHub* hub_;
};

// ---- AudioFlinger ("media.audio_flinger") ----
inline constexpr uint32_t kAudioRecord = 1;
inline constexpr uint32_t kAudioPlay = 2;

class AudioFlingerService : public DeviceService {
 public:
  // |speaker| may be nullptr on speakerless builds; playback then returns
  // UNIMPLEMENTED.
  AudioFlingerService(Microphone* microphone, Speaker* speaker,
                      CrossContainerPermissionChecker checker)
      : DeviceService(std::move(checker)), microphone_(microphone),
        speaker_(speaker) {}

  Status OnTransact(uint32_t code, const Parcel& data, Parcel* reply,
                    const BinderCallContext& ctx) override;
  std::string descriptor() const override { return "AudioFlinger"; }

 private:
  Microphone* microphone_;
  Speaker* speaker_;
  FdToken next_fd_ = 1000;
};

}  // namespace androne

#endif  // SRC_SERVICES_DEVICE_SERVICES_H_
