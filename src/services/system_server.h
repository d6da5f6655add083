// SystemServer boot helpers: wire up the Android service stacks inside the
// device container and virtual drone containers (paper §4.2). The device
// container boots the single set of device services (auto-published to all
// namespaces); virtual drone containers boot only their ServiceManager and
// ActivityManager — their own device services are disabled, exactly the
// init/SystemServer modification the paper describes.
#ifndef SRC_SERVICES_SYSTEM_SERVER_H_
#define SRC_SERVICES_SYSTEM_SERVER_H_

#include <memory>

#include "src/container/runtime.h"
#include "src/hw/device.h"
#include "src/services/activity_manager.h"
#include "src/services/device_services.h"

namespace androne {

// Handles to everything the device container runs.
struct DeviceContainerStack {
  BinderProc* servicemanager_proc = nullptr;
  BinderProc* system_server_proc = nullptr;
  std::shared_ptr<ServiceManager> service_manager;
  std::shared_ptr<ActivityManager> activity_manager;
  std::shared_ptr<CameraService> camera_service;
  std::shared_ptr<LocationManagerService> location_service;
  std::shared_ptr<SensorService> sensor_service;
  std::shared_ptr<AudioFlingerService> audio_service;
  // Single-writer snapshot sampler the sensor/location services serve from
  // (and the flight stack reads directly).
  std::shared_ptr<SensorHub> sensor_hub;
};

// Boots the device container's stack. The container must be running. Opens
// every hardware device exclusively for the device container and registers
// the Table-1 services as shared (auto-published to all namespaces).
// |trusted_container| is the flight container's id (its native processes
// bypass per-app permission checks); pass -1 if it does not exist yet and
// set it later via the checker. The stack also runs a SensorHub on |clock|:
// sensors are drawn once per cadence period into a versioned snapshot that
// SensorService/LocationManagerService serve from, instead of hitting the
// devices once per client request.
StatusOr<DeviceContainerStack> BootDeviceContainer(
    ContainerRuntime& runtime, ContainerId device_container,
    HardwareBus& bus, ContainerId trusted_container, SimClock* clock);

// Handles to a virtual drone container's Android Things system stack.
struct VirtualDroneStack {
  BinderProc* servicemanager_proc = nullptr;
  BinderProc* system_server_proc = nullptr;
  std::shared_ptr<ServiceManager> service_manager;
  std::shared_ptr<ActivityManager> activity_manager;
};

// Boots a virtual drone container's stack. The device container must
// already be up so the ActivityManager forward-registration succeeds.
StatusOr<VirtualDroneStack> BootVirtualDrone(ContainerRuntime& runtime,
                                             ContainerId vdrone_container);

}  // namespace androne

#endif  // SRC_SERVICES_SYSTEM_SERVER_H_
