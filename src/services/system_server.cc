#include "src/services/system_server.h"

#include "src/hw/camera.h"
#include "src/hw/sensors.h"

namespace androne {

namespace {

StatusOr<BinderProc*> ProcOf(ContainerRuntime& runtime, ContainerId id,
                             const char* name) {
  ASSIGN_OR_RETURN(Container * container, runtime.Find(id));
  ASSIGN_OR_RETURN(const ContainerProcess* proc,
                   container->FindProcess(name));
  return proc->binder;
}

template <typename T>
StatusOr<T*> OpenDevice(HardwareBus& bus, const char* name,
                        ContainerId opener) {
  ASSIGN_OR_RETURN(HardwareDevice * device, bus.Find(name));
  T* typed = dynamic_cast<T*>(device);
  if (typed == nullptr) {
    return InternalError(std::string("device '") + name +
                         "' has unexpected type");
  }
  RETURN_IF_ERROR(typed->Open(opener));
  return typed;
}

}  // namespace

StatusOr<DeviceContainerStack> BootDeviceContainer(
    ContainerRuntime& runtime, ContainerId device_container, HardwareBus& bus,
    ContainerId trusted_container, SimClock* clock) {
  DeviceContainerStack stack;
  runtime.binder()->set_device_container(device_container);

  ASSIGN_OR_RETURN(stack.servicemanager_proc,
                   ProcOf(runtime, device_container, "servicemanager"));
  ASSIGN_OR_RETURN(stack.system_server_proc,
                   ProcOf(runtime, device_container, "system_server"));

  // The device container's ServiceManager publishes Table-1 services to all
  // namespaces as they register.
  ServiceManager::Options sm_opts;
  sm_opts.shared_service_names = {kCameraServiceName, kLocationServiceName,
                                  kSensorServiceName, kAudioServiceName};
  ASSIGN_OR_RETURN(stack.service_manager,
                   ServiceManager::Install(stack.servicemanager_proc,
                                           sm_opts));
  ASSIGN_OR_RETURN(stack.activity_manager,
                   ActivityManager::Install(stack.system_server_proc));

  // Open every hardware device exclusively for the device container.
  ASSIGN_OR_RETURN(Camera * camera,
                   OpenDevice<Camera>(bus, kCameraDeviceName,
                                      device_container));
  ASSIGN_OR_RETURN(GpsReceiver * gps,
                   OpenDevice<GpsReceiver>(bus, kGpsDeviceName,
                                           device_container));
  ASSIGN_OR_RETURN(Imu * imu,
                   OpenDevice<Imu>(bus, kImuDeviceName, device_container));
  ASSIGN_OR_RETURN(Barometer * baro,
                   OpenDevice<Barometer>(bus, kBarometerDeviceName,
                                         device_container));
  ASSIGN_OR_RETURN(Magnetometer * mag,
                   OpenDevice<Magnetometer>(bus, kMagnetometerDeviceName,
                                            device_container));
  ASSIGN_OR_RETURN(Microphone * mic,
                   OpenDevice<Microphone>(bus, kMicrophoneDeviceName,
                                          device_container));
  // Speakers are optional equipment; airframes without one still boot.
  Speaker* speaker = nullptr;
  if (bus.Find(kSpeakerDeviceName).ok()) {
    ASSIGN_OR_RETURN(speaker, OpenDevice<Speaker>(bus, kSpeakerDeviceName,
                                                  device_container));
  }

  CrossContainerPermissionChecker checker(stack.system_server_proc,
                                          trusted_container);

  // Sensors are sampled through the snapshot bus: one draw per sensor per
  // cadence period, shared by every consumer.
  stack.sensor_hub = std::make_shared<SensorHub>(clock, gps, imu, baro, mag,
                                                 device_container);
  stack.camera_service = std::make_shared<CameraService>(camera, checker);
  stack.location_service = std::make_shared<LocationManagerService>(
      stack.sensor_hub.get(), checker);
  stack.sensor_service =
      std::make_shared<SensorService>(stack.sensor_hub.get(), checker);
  stack.audio_service =
      std::make_shared<AudioFlingerService>(mic, speaker, checker);

  // Register each with the device container's ServiceManager; the shared
  // list triggers PUBLISH_TO_ALL_NS for each (paper Figure 6).
  struct Registration {
    const char* name;
    std::shared_ptr<BinderObject> object;
  };
  for (const Registration& reg : std::initializer_list<Registration>{
           {kCameraServiceName, stack.camera_service},
           {kLocationServiceName, stack.location_service},
           {kSensorServiceName, stack.sensor_service},
           {kAudioServiceName, stack.audio_service}}) {
    BinderHandle handle = stack.system_server_proc->RegisterObject(reg.object);
    RETURN_IF_ERROR(SmAddService(stack.system_server_proc, reg.name, handle));
  }
  return stack;
}

StatusOr<VirtualDroneStack> BootVirtualDrone(ContainerRuntime& runtime,
                                             ContainerId vdrone_container) {
  VirtualDroneStack stack;
  ASSIGN_OR_RETURN(stack.servicemanager_proc,
                   ProcOf(runtime, vdrone_container, "servicemanager"));
  ASSIGN_OR_RETURN(stack.system_server_proc,
                   ProcOf(runtime, vdrone_container, "system_server"));

  ServiceManager::Options sm_opts;
  sm_opts.publish_activity_manager_to_device_container = true;
  ASSIGN_OR_RETURN(stack.service_manager,
                   ServiceManager::Install(stack.servicemanager_proc,
                                           sm_opts));
  ASSIGN_OR_RETURN(stack.activity_manager,
                   ActivityManager::Install(stack.system_server_proc));
  return stack;
}

}  // namespace androne
