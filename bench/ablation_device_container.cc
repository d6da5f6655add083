// Ablation (DESIGN.md): the cost of AnDrone's *service-level* device
// multiplexing. Measures the same camera capture through three real paths:
//
//   direct        app touches the hardware model directly (no isolation —
//                 what a single-tenant stock system does)
//   same-cont.    app -> Binder -> CameraService in the app's own container
//                 (stock Android's service indirection)
//   cross-cont.   virtual drone app -> shared CameraService in the device
//                 container, including the cross-container ActivityManager
//                 permission check (AnDrone's full path)
//
// The point of the paper's design: the whole multiplexing layer costs a few
// extra Binder transactions per operation — microseconds — while requiring
// *zero per-device kernel support*, versus the per-device-driver namespace
// work a Cells-style approach needs for every new platform.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/container/runtime.h"
#include "src/flight/quad_physics.h"
#include "src/hw/camera.h"
#include "src/services/system_server.h"
#include "src/util/logging.h"

namespace androne {
namespace {

constexpr int kIterations = 200000;

double MeasureNsPerOp(const std::function<void()>& op) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    op();
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count() /
         kIterations;
}

void RunAblation() {
  BenchHeader("Ablation", "device-container multiplexing cost (real paths)");

  SimClock clock;
  QuadPhysics physics(GeoPoint{43.6084298, -85.8110359, 0});
  HardwareBus bus;
  Camera* camera =
      bus.Register(std::make_unique<Camera>(&clock, physics.mutable_truth()));
  bus.Register(
      std::make_unique<GpsReceiver>(&clock, physics.mutable_truth(), 1));
  bus.Register(std::make_unique<Imu>(&clock, physics.mutable_truth(), 2));
  bus.Register(
      std::make_unique<Barometer>(&clock, physics.mutable_truth(), 3));
  bus.Register(
      std::make_unique<Magnetometer>(&clock, physics.mutable_truth(), 4));
  bus.Register(std::make_unique<Microphone>(&clock));

  BinderDriver driver;
  ImageStore images;
  ContainerRuntime runtime(&driver, &images);
  LayerId layer = images.AddLayer(LayerFiles{{"/init.rc", {"boot", false}}});
  ImageId image = images.CreateImage("base", {layer}).value();

  Container* dev =
      runtime.CreateContainer("device", ContainerKind::kDevice, image).value();
  (void)runtime.StartContainer(dev->id());
  auto stack = BootDeviceContainer(runtime, dev->id(), bus, -1, &clock).value();

  // 1. Direct hardware access (stock single-tenant baseline).
  double direct_ns = MeasureNsPerOp([&] {
    auto frame = camera->Capture(dev->id());
    (void)frame;
  });

  // 2. Same-container Binder service call (stock Android indirection):
  // a device-container-local client calling CameraService.
  BinderProc* local_app = runtime.SpawnProcess(dev->id(), "local.app",
                                               10001).value().binder;
  stack.activity_manager->GrantPermission(10001,
                                          "androne.device.camera");
  BinderHandle local_cam = SmGetService(local_app, kCameraServiceName).value();
  double same_container_ns = MeasureNsPerOp([&] {
    Parcel req;
    auto reply = local_app->Transact(local_cam, kCamCapture, req);
    (void)reply;
  });

  // 3. Full AnDrone path: virtual drone app -> published service ->
  // cross-container ActivityManager permission check -> hardware.
  Container* vd = runtime.CreateContainer("vd1", ContainerKind::kVirtualDrone,
                                          image).value();
  (void)runtime.StartContainer(vd->id());
  auto vd_stack = BootVirtualDrone(runtime, vd->id()).value();
  BinderProc* tenant_app =
      runtime.SpawnProcess(vd->id(), "tenant.app", 10050).value().binder;
  vd_stack.activity_manager->GrantPermission(10050, "androne.device.camera");
  BinderHandle shared_cam =
      SmGetService(tenant_app, kCameraServiceName).value();
  double cross_container_ns = MeasureNsPerOp([&] {
    Parcel req;
    auto reply = tenant_app->Transact(shared_cam, kCamCapture, req);
    (void)reply;
  });

  std::printf("%-34s %12.0f ns/op  (x%.2f)\n", "direct hardware access",
              direct_ns, 1.0);
  std::printf("%-34s %12.0f ns/op  (x%.2f)\n",
              "same-container Binder service", same_container_ns,
              same_container_ns / direct_ns);
  std::printf("%-34s %12.0f ns/op  (x%.2f)\n",
              "cross-container + permission check", cross_container_ns,
              cross_container_ns / direct_ns);
  std::printf("\nAnDrone's added multiplexing cost over stock Android: "
              "%.0f ns per device operation (%.1f%%).\n",
              cross_container_ns - same_container_ns,
              100.0 * (cross_container_ns - same_container_ns) /
                  same_container_ns);
  BenchNote("per-device engineering effort: service-level approach = 0 "
            "kernel changes per device; Cells-style device namespaces = "
            "driver modification per device per platform (paper §7)");
}

}  // namespace
}  // namespace androne

int main() {
  androne::SetMinLogLevel(androne::LogLevel::kWarning);
  androne::RunAblation();
  return 0;
}
