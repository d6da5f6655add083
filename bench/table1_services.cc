// Table 1 reproduction: the device-container services and the hardware
// devices they manage. Rather than restating the paper's table, this bench
// boots the actual device container on the hardware bus and introspects the
// live service registry and device-open state.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/util/logging.h"
#include "src/container/runtime.h"
#include "src/flight/quad_physics.h"
#include "src/hw/camera.h"
#include "src/hw/sensors.h"
#include "src/services/system_server.h"

namespace androne {
namespace {

void RunTable1() {
  BenchHeader("Table 1", "Device container services -> devices");

  SimClock clock;
  QuadPhysics physics(GeoPoint{43.6084298, -85.8110359, 0});
  DroneGroundTruth* truth = physics.mutable_truth();
  HardwareBus bus;
  bus.Register(std::make_unique<Camera>(&clock, truth));
  bus.Register(std::make_unique<GpsReceiver>(&clock, truth, 1));
  bus.Register(std::make_unique<Imu>(&clock, truth, 2));
  bus.Register(std::make_unique<Barometer>(&clock, truth, 3));
  bus.Register(std::make_unique<Magnetometer>(&clock, truth, 4));
  bus.Register(std::make_unique<Microphone>(&clock));

  BinderDriver driver;
  ImageStore images;
  ContainerRuntime runtime(&driver, &images);
  LayerId layer = images.AddLayer(LayerFiles{{"/init.rc", {"on boot", false}}});
  ImageId image = images.CreateImage("base", {layer}).value();
  Container* dev =
      runtime.CreateContainer("device", ContainerKind::kDevice, image).value();
  (void)runtime.StartContainer(dev->id());
  auto stack = BootDeviceContainer(runtime, dev->id(), bus, -1, &clock).value();

  struct RowSource {
    const char* android_name;
    const char* registered_as;
    const char* devices;
  } rows[] = {
      {"AudioFlinger", kAudioServiceName, "Microphone, Speakers"},
      {"CameraService", kCameraServiceName, "Camera"},
      {"LocationManagerService", kLocationServiceName, "GPS"},
      {"SensorService", kSensorServiceName,
       "Motion, Environmental Sensors (IMU, barometer, magnetometer)"},
  };
  std::printf("%-26s %-22s %s\n", "Service", "Binder name", "Device(s)");
  for (const RowSource& row : rows) {
    bool registered = stack.service_manager->HasService(row.registered_as);
    std::printf("%-26s %-22s %s%s\n", row.android_name, row.registered_as,
                row.devices, registered ? "" : "  [NOT REGISTERED]");
  }

  std::printf("\nExclusive hardware opens held by the device container:\n");
  for (const std::string& name : bus.DeviceNames()) {
    auto device = bus.Find(name);
    if (device.ok()) {
      std::printf("  %-14s open=%s opener=container:%d\n", name.c_str(),
                  (*device)->is_open() ? "yes" : "no", (*device)->opener());
    }
  }
  BenchNote("all four Table-1 services auto-published to every virtual "
            "drone namespace via PUBLISH_TO_ALL_NS");
}

}  // namespace
}  // namespace androne

int main() {
  androne::SetMinLogLevel(androne::LogLevel::kWarning);
  androne::RunTable1();
  return 0;
}
