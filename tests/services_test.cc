#include <gtest/gtest.h>

#include <memory>

#include "src/container/runtime.h"
#include "src/hw/camera.h"
#include "src/hw/ground_truth.h"
#include "src/hw/sensors.h"
#include "src/services/activity_manager.h"
#include "src/services/app.h"
#include "src/services/device_services.h"
#include "src/services/permissions.h"
#include "src/services/system_server.h"

namespace androne {
namespace {

// End-to-end fixture: device container + two virtual drones over real
// Binder, services, and hardware models.
class ServicesFixture : public ::testing::Test {
 protected:
  ServicesFixture() : runtime_(&driver_, &store_) {
    truth_.position = GeoPoint{43.6084298, -85.8110359, 15.0};

    bus_.Register(std::make_unique<Camera>(&clock_, &truth_));
    bus_.Register(std::make_unique<GpsReceiver>(&clock_, &truth_, 11));
    bus_.Register(std::make_unique<Imu>(&clock_, &truth_, 12));
    bus_.Register(std::make_unique<Barometer>(&clock_, &truth_, 13));
    bus_.Register(std::make_unique<Magnetometer>(&clock_, &truth_, 14));
    bus_.Register(std::make_unique<Microphone>(&clock_));

    LayerId base = store_.AddLayer(LayerFiles{
        {"/system/build.prop", {"android-things", false}}});
    image_ = store_.CreateImage("base", {base}).value();

    device_ = runtime_.CreateContainer("device", ContainerKind::kDevice,
                                       image_).value();
    EXPECT_TRUE(runtime_.StartContainer(device_->id()).ok());
    device_stack_ = BootDeviceContainer(runtime_, device_->id(), bus_,
                                        /*trusted_container=*/-1, &clock_)
                        .value();
  }

  // Boots a virtual drone container and returns its stack.
  std::pair<Container*, VirtualDroneStack> MakeVdrone(const std::string& name) {
    Container* c = runtime_.CreateContainer(name,
                                            ContainerKind::kVirtualDrone,
                                            image_).value();
    EXPECT_TRUE(runtime_.StartContainer(c->id()).ok());
    VirtualDroneStack stack = BootVirtualDrone(runtime_, c->id()).value();
    return {c, stack};
  }

  // Spawns an app process with the given device permissions granted.
  BinderProc* SpawnApp(Container* vd, const VirtualDroneStack& stack,
                       const std::string& package, Uid uid,
                       const std::vector<std::string>& permissions) {
    auto proc = runtime_.SpawnProcess(vd->id(), package, uid).value();
    for (const std::string& perm : permissions) {
      stack.activity_manager->GrantPermission(uid, perm);
    }
    return proc.binder;
  }

  SimClock clock_;
  DroneGroundTruth truth_;
  HardwareBus bus_;
  BinderDriver driver_;
  ImageStore store_;
  ContainerRuntime runtime_;
  ImageId image_;
  Container* device_ = nullptr;
  DeviceContainerStack device_stack_;
};

TEST_F(ServicesFixture, Table1ServicesPublishedToVirtualDrones) {
  auto [vd, stack] = MakeVdrone("vd1");
  // All four Table-1 services appear in the virtual drone's namespace.
  EXPECT_TRUE(stack.service_manager->HasService(kCameraServiceName));
  EXPECT_TRUE(stack.service_manager->HasService(kLocationServiceName));
  EXPECT_TRUE(stack.service_manager->HasService(kSensorServiceName));
  EXPECT_TRUE(stack.service_manager->HasService(kAudioServiceName));
}

TEST_F(ServicesFixture, AppUsesCameraThroughSharedService) {
  auto [vd, stack] = MakeVdrone("vd1");
  BinderProc* app = SpawnApp(vd, stack, "com.example.survey", 10001,
                             {kPermCamera});
  auto camera = SmGetService(app, kCameraServiceName);
  ASSERT_TRUE(camera.ok());
  Parcel req;
  auto conn = app->Transact(*camera, kCamConnect, req);
  ASSERT_TRUE(conn.ok()) << conn.status();
  auto frame = app->Transact(*camera, kCamCapture, req);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->ReadInt64().value(), 0);  // First frame sequence.
  frame->ReadInt64().value();                // Timestamp.
  EXPECT_EQ(frame->ReadInt32().value(), 3280);
  EXPECT_EQ(frame->ReadInt32().value(), 2464);
  EXPECT_NEAR(frame->ReadDouble().value(), 43.6084298, 1e-6);
}

TEST_F(ServicesFixture, AppWithoutPermissionDenied) {
  auto [vd, stack] = MakeVdrone("vd1");
  BinderProc* app = SpawnApp(vd, stack, "com.example.nosy", 10002, {});
  auto camera = SmGetService(app, kCameraServiceName);
  ASSERT_TRUE(camera.ok());  // Service is visible...
  Parcel req;
  auto conn = app->Transact(*camera, kCamConnect, req);
  EXPECT_EQ(conn.status().code(), StatusCode::kPermissionDenied);  // ...but gated.
}

TEST_F(ServicesFixture, VdcPolicyGatesDeviceAccessDynamically) {
  auto [vd, stack] = MakeVdrone("vd1");
  BinderProc* app = SpawnApp(vd, stack, "com.example.survey", 10001,
                             {kPermCamera});
  // VDC policy: camera only allowed when at a waypoint.
  bool at_waypoint = false;
  stack.activity_manager->SetAndronePolicy(
      [&at_waypoint](const std::string& permission, Uid uid) {
        (void)permission;
        (void)uid;
        return at_waypoint;
      });
  auto camera = SmGetService(app, kCameraServiceName);
  ASSERT_TRUE(camera.ok());
  Parcel req;
  EXPECT_EQ(app->Transact(*camera, kCamConnect, req).status().code(),
            StatusCode::kPermissionDenied);
  at_waypoint = true;
  EXPECT_TRUE(app->Transact(*camera, kCamConnect, req).ok());
  at_waypoint = false;  // Left the waypoint: access revoked.
  EXPECT_EQ(app->Transact(*camera, kCamCapture, req).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(ServicesFixture, TwoVirtualDronesIsolatedPermissions) {
  auto [vd1, stack1] = MakeVdrone("vd1");
  auto [vd2, stack2] = MakeVdrone("vd2");
  BinderProc* app1 = SpawnApp(vd1, stack1, "com.a", 10001, {kPermGps});
  BinderProc* app2 = SpawnApp(vd2, stack2, "com.b", 10001, {});  // Same uid!
  auto loc1 = SmGetService(app1, kLocationServiceName);
  auto loc2 = SmGetService(app2, kLocationServiceName);
  ASSERT_TRUE(loc1.ok());
  ASSERT_TRUE(loc2.ok());
  Parcel req;
  // Same uid, different containers: permission routes to each container's
  // own ActivityManager.
  EXPECT_TRUE(app1->Transact(*loc1, kLocGetLast, req).ok());
  EXPECT_EQ(app2->Transact(*loc2, kLocGetLast, req).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(ServicesFixture, LocationServiceReturnsFix) {
  auto [vd, stack] = MakeVdrone("vd1");
  BinderProc* app = SpawnApp(vd, stack, "com.a", 10001, {kPermGps});
  auto loc = SmGetService(app, kLocationServiceName);
  Parcel req;
  auto reply = app->Transact(*loc, kLocGetLast, req);
  ASSERT_TRUE(reply.ok());
  EXPECT_NEAR(reply->ReadDouble().value(), 43.6084298, 1e-3);
  EXPECT_NEAR(reply->ReadDouble().value(), -85.8110359, 1e-3);
  EXPECT_NEAR(reply->ReadDouble().value(), 15.0, 10.0);
  reply->ReadDouble().value();
  reply->ReadDouble().value();
  reply->ReadDouble().value();
  EXPECT_TRUE(reply->ReadBool().value());
  EXPECT_GE(reply->ReadInt32().value(), 6);
}

TEST_F(ServicesFixture, SensorServiceReadings) {
  truth_.roll_rate_rads = 0.25;
  auto [vd, stack] = MakeVdrone("vd1");
  BinderProc* app = SpawnApp(vd, stack, "com.a", 10001, {kPermSensors});
  auto sensors = SmGetService(app, kSensorServiceName);
  Parcel req;
  auto imu = app->Transact(*sensors, kSensorReadImu, req);
  ASSERT_TRUE(imu.ok());
  EXPECT_NEAR(imu->ReadDouble().value(), 0.25, 0.05);
  auto baro = app->Transact(*sensors, kSensorReadBaro, req);
  ASSERT_TRUE(baro.ok());
  EXPECT_NEAR(baro->ReadDouble().value(), 15.0, 1.0);
  auto mag = app->Transact(*sensors, kSensorReadMag, req);
  ASSERT_TRUE(mag.ok());
}

TEST_F(ServicesFixture, AudioRecordThroughAudioFlinger) {
  auto [vd, stack] = MakeVdrone("vd1");
  BinderProc* app = SpawnApp(vd, stack, "com.a", 10001, {kPermMicrophone});
  auto audio = SmGetService(app, kAudioServiceName);
  Parcel req;
  req.WriteInt32(4410);
  auto reply = app->Transact(*audio, kAudioRecord, req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ReadInt32().value(), 4410);
  EXPECT_GT(reply->ReadFd().value(), 0);
}

TEST_F(ServicesFixture, ActiveClientTrackingForRevocation) {
  auto [vd, stack] = MakeVdrone("vd1");
  BinderProc* app = SpawnApp(vd, stack, "com.a", 10001, {kPermCamera});
  auto camera = SmGetService(app, kCameraServiceName);
  Parcel req;
  ASSERT_TRUE(app->Transact(*camera, kCamConnect, req).ok());
  auto active = device_stack_.camera_service->ActiveContainers();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], vd->id());
  auto pids = device_stack_.camera_service->ActivePids(vd->id());
  ASSERT_EQ(pids.size(), 1u);
  EXPECT_EQ(pids[0], app->pid());

  // Voluntary disconnect clears tracking.
  ASSERT_TRUE(app->Transact(*camera, kCamDisconnect, req).ok());
  EXPECT_TRUE(device_stack_.camera_service->ActiveContainers().empty());
}

TEST_F(ServicesFixture, TrustedContainerBypassesPermissionCheck) {
  // Create a "flight" container: native Linux, no ActivityManager.
  Container* flight = runtime_.CreateContainer("flight",
                                               ContainerKind::kFlight,
                                               image_).value();
  ASSERT_TRUE(runtime_.StartContainer(flight->id()).ok());
  // Mark it trusted on a fresh checker (simulating boot-time config).
  DeviceContainerStack restacked = device_stack_;
  auto proc = runtime_.SpawnProcess(flight->id(), "ardupilot", 0).value();

  // Without trust: denied (no activity@<flight> registered).
  CrossContainerPermissionChecker untrusted(device_stack_.system_server_proc,
                                            -1);
  BinderCallContext ctx{proc.pid, 0, flight->id()};
  EXPECT_FALSE(untrusted.Check(kPermGps, ctx));

  // With trust: allowed.
  CrossContainerPermissionChecker trusted(device_stack_.system_server_proc,
                                          flight->id());
  EXPECT_TRUE(trusted.Check(kPermGps, ctx));
}

TEST_F(ServicesFixture, DevicePermissionMapping) {
  EXPECT_EQ(DeviceToPermission("camera").value(), kPermCamera);
  EXPECT_EQ(DeviceToPermission("flight-control").value(), kPermFlightControl);
  EXPECT_FALSE(DeviceToPermission("x-ray").has_value());
  EXPECT_EQ(KnownDevices().size(), 5u);
}

// App lifecycle: save/restore through the container filesystem.
class CountingApp : public AndroidApp {
 public:
  CountingApp() : AndroidApp("com.example.counter", 10001) {}
  int count = 0;

 protected:
  void OnCreate() override { ++creates; }
  JsonValue OnSaveInstanceState() override {
    JsonObject state;
    state["count"] = count;
    return JsonValue(std::move(state));
  }
  void OnRestoreInstanceState(const JsonValue& state) override {
    count = static_cast<int>(state.GetIntOr("count", 0));
  }

 public:
  int creates = 0;
};

TEST_F(ServicesFixture, AppSaveRestoreAcrossFlights) {
  auto [vd, stack] = MakeVdrone("vd1");
  auto proc = runtime_.SpawnProcess(vd->id(), "com.example.counter",
                                    10001).value();
  CountingApp app;
  app.Create(proc.binder, vd);
  app.count = 17;
  app.SaveInstanceState();
  app.Destroy();

  // "Next flight": a fresh app instance on the same container image.
  CountingApp resumed;
  resumed.Create(proc.binder, vd);
  EXPECT_EQ(resumed.count, 17);
  EXPECT_EQ(resumed.creates, 1);
}

TEST_F(ServicesFixture, AppStateSurvivesCommitToImage) {
  auto [vd, stack] = MakeVdrone("vd1");
  auto proc = runtime_.SpawnProcess(vd->id(), "com.example.counter",
                                    10001).value();
  CountingApp app;
  app.Create(proc.binder, vd);
  app.count = 5;
  app.SaveInstanceState();
  auto image = runtime_.Commit(vd->id(), "vd1-saved");
  ASSERT_TRUE(image.ok());
  auto view = store_.Flatten(*image);
  ASSERT_TRUE(view.ok());
  EXPECT_NE(view->at(app.SavedStatePath()).find("\"count\":5"),
            std::string::npos);
}

}  // namespace
}  // namespace androne
