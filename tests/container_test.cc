#include <gtest/gtest.h>

#include "src/container/container.h"
#include "src/container/image_store.h"
#include "src/container/runtime.h"
#include "src/container/supervisor.h"

namespace androne {
namespace {

LayerFiles BaseFiles() {
  return LayerFiles{
      {"/system/build.prop", {"android-things-1.0.3", false}},
      {"/system/framework.jar", {std::string(1000, 'f'), false}},
  };
}

class ImageStoreTest : public ::testing::Test {
 protected:
  ImageStore store_;
};

TEST_F(ImageStoreTest, CreateAndFlatten) {
  LayerId base = store_.AddLayer(BaseFiles());
  auto image = store_.CreateImage("things-base", {base});
  ASSERT_TRUE(image.ok());
  auto view = store_.Flatten(*image);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->at("/system/build.prop"), "android-things-1.0.3");
}

TEST_F(ImageStoreTest, UpperLayersOverrideAndTombstone) {
  LayerId base = store_.AddLayer(BaseFiles());
  LayerId upper = store_.AddLayer(LayerFiles{
      {"/system/build.prop", {"patched", false}},
      {"/system/framework.jar", {"", true}},  // Deleted.
      {"/data/app.apk", {"apk-bytes", false}},
  });
  auto image = store_.CreateImage("patched", {base, upper});
  ASSERT_TRUE(image.ok());
  auto view = store_.Flatten(*image);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->at("/system/build.prop"), "patched");
  EXPECT_EQ(view->count("/system/framework.jar"), 0u);
  EXPECT_EQ(view->at("/data/app.apk"), "apk-bytes");
}

TEST_F(ImageStoreTest, DuplicateNameRejected) {
  LayerId base = store_.AddLayer(BaseFiles());
  ASSERT_TRUE(store_.CreateImage("img", {base}).ok());
  EXPECT_EQ(store_.CreateImage("img", {base}).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ImageStoreTest, UnknownLayerRejected) {
  EXPECT_EQ(store_.CreateImage("img", {999}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ImageStoreTest, SharedBaseCountedOnce) {
  LayerId base = store_.AddLayer(BaseFiles());
  auto base_img = store_.CreateImage("base", {base});
  ASSERT_TRUE(base_img.ok());
  // Three virtual drones, each a small diff on the same base.
  std::vector<ImageId> images;
  for (int i = 0; i < 3; ++i) {
    auto img = store_.CommitDiff(*base_img,
                                 LayerFiles{{"/data/vd" + std::to_string(i),
                                             {"state", false}}},
                                 "vd" + std::to_string(i));
    ASSERT_TRUE(img.ok());
    images.push_back(*img);
  }
  auto unique = store_.UniqueStorageBytes(images);
  ASSERT_TRUE(unique.ok());
  auto base_size = store_.LayerSizeBytes(base);
  ASSERT_TRUE(base_size.ok());
  // Far smaller than 3x the base: base shared, diffs tiny.
  EXPECT_LT(*unique, *base_size + 300);
  EXPECT_GE(*unique, *base_size);
}

TEST_F(ImageStoreTest, ExportImportRoundTrip) {
  LayerId base = store_.AddLayer(BaseFiles());
  auto img = store_.CreateImage("base", {base});
  ASSERT_TRUE(img.ok());
  auto vd = store_.CommitDiff(
      *img, LayerFiles{{"/data/state.json", {"{\"x\":1}", false}}}, "vd");
  ASSERT_TRUE(vd.ok());

  auto bytes = store_.Export(*vd);
  ASSERT_TRUE(bytes.ok());

  ImageStore other;  // A different physical drone.
  auto imported = other.Import(*bytes);
  ASSERT_TRUE(imported.ok());
  auto view = other.Flatten(*imported);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->at("/data/state.json"), "{\"x\":1}");
  EXPECT_EQ(view->at("/system/build.prop"), "android-things-1.0.3");
}

TEST_F(ImageStoreTest, ImportRejectsGarbage) {
  std::vector<uint8_t> garbage{1, 2, 3, 4, 5};
  EXPECT_FALSE(store_.Import(garbage).ok());
}

TEST_F(ImageStoreTest, ImportDisambiguatesNames) {
  LayerId base = store_.AddLayer(BaseFiles());
  auto img = store_.CreateImage("base", {base});
  ASSERT_TRUE(img.ok());
  auto bytes = store_.Export(*img);
  ASSERT_TRUE(bytes.ok());
  auto again = store_.Import(*bytes);  // Same store: name collision.
  ASSERT_TRUE(again.ok());
  EXPECT_NE(*again, *img);
}

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : runtime_(&driver_, &store_) {
    LayerId base = store_.AddLayer(BaseFiles());
    image_ = store_.CreateImage("things-base", {base}).value();
  }

  BinderDriver driver_;
  ImageStore store_;
  ContainerRuntime runtime_;
  ImageId image_;
};

TEST_F(RuntimeTest, LifecycleAndProcesses) {
  auto c = runtime_.CreateContainer("vd1", ContainerKind::kVirtualDrone,
                                    image_);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->state(), ContainerState::kCreated);
  EXPECT_DOUBLE_EQ((*c)->MemoryUsageMb(), 0.0);

  ASSERT_TRUE(runtime_.StartContainer((*c)->id()).ok());
  EXPECT_EQ((*c)->state(), ContainerState::kRunning);
  EXPECT_EQ((*c)->processes().size(), 5u);  // Android Things boot set.
  EXPECT_TRUE((*c)->FindProcess("system_server").ok());

  ASSERT_TRUE(runtime_.StopContainer((*c)->id()).ok());
  EXPECT_EQ((*c)->state(), ContainerState::kStopped);
  EXPECT_TRUE((*c)->processes().empty());
  EXPECT_EQ(driver_.process_count(), 0u);
}

TEST_F(RuntimeTest, MemoryModelMatchesFig12) {
  // Base system.
  EXPECT_NEAR(runtime_.MemoryUsageMb(), 95, 10);

  auto dev = runtime_.CreateContainer("device", ContainerKind::kDevice, image_);
  auto flight = runtime_.CreateContainer("flight", ContainerKind::kFlight,
                                         image_);
  ASSERT_TRUE(runtime_.StartContainer((*dev)->id()).ok());
  ASSERT_TRUE(runtime_.StartContainer((*flight)->id()).ok());
  // Dev + flight add ~150 MB.
  EXPECT_NEAR(runtime_.MemoryUsageMb(), 95 + 150, 20);

  double before = runtime_.MemoryUsageMb();
  auto vd = runtime_.CreateContainer("vd1", ContainerKind::kVirtualDrone,
                                     image_);
  ASSERT_TRUE(runtime_.StartContainer((*vd)->id()).ok());
  // Each virtual drone adds ~185 MB.
  EXPECT_NEAR(runtime_.MemoryUsageMb() - before, 185, 15);
}

TEST_F(RuntimeTest, FourthVirtualDroneFailsWithoutDisturbingOthers) {
  auto dev = runtime_.CreateContainer("device", ContainerKind::kDevice, image_);
  auto flight = runtime_.CreateContainer("flight", ContainerKind::kFlight,
                                         image_);
  ASSERT_TRUE(runtime_.StartContainer((*dev)->id()).ok());
  ASSERT_TRUE(runtime_.StartContainer((*flight)->id()).ok());
  std::vector<Container*> vds;
  for (int i = 1; i <= 3; ++i) {
    auto vd = runtime_.CreateContainer("vd" + std::to_string(i),
                                       ContainerKind::kVirtualDrone, image_);
    ASSERT_TRUE(vd.ok());
    ASSERT_TRUE(runtime_.StartContainer((*vd)->id()).ok()) << i;
    vds.push_back(*vd);
  }
  // The 4th exceeds the 880 MB budget (paper §6.3).
  auto vd4 = runtime_.CreateContainer("vd4", ContainerKind::kVirtualDrone,
                                      image_);
  ASSERT_TRUE(vd4.ok());
  Status s = runtime_.StartContainer((*vd4)->id());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  for (Container* vd : vds) {
    EXPECT_EQ(vd->state(), ContainerState::kRunning);
  }
  EXPECT_LE(runtime_.MemoryUsageMb(), kUsableMemoryMb);
}

TEST_F(RuntimeTest, CopyOnWriteFilesystem) {
  auto c = runtime_.CreateContainer("vd1", ContainerKind::kVirtualDrone,
                                    image_);
  ASSERT_TRUE(c.ok());
  Container* vd = *c;
  // Reads fall through to the image.
  EXPECT_EQ(vd->ReadFile("/system/build.prop").value(),
            "android-things-1.0.3");
  // Writes go to the writable layer only.
  vd->WriteFile("/data/prefs.xml", "<prefs/>");
  EXPECT_EQ(vd->ReadFile("/data/prefs.xml").value(), "<prefs/>");
  // Deleting an image file hides it.
  vd->DeleteFile("/system/framework.jar");
  EXPECT_FALSE(vd->ReadFile("/system/framework.jar").ok());
  // The base image itself is untouched.
  EXPECT_EQ(store_.Flatten(image_)->count("/system/framework.jar"), 1u);
}

TEST_F(RuntimeTest, CommitPersistsWritableLayer) {
  auto c = runtime_.CreateContainer("vd1", ContainerKind::kVirtualDrone,
                                    image_);
  Container* vd = *c;
  vd->WriteFile("/data/state.json", "{\"progress\":0.4}");
  auto committed = runtime_.Commit(vd->id(), "vd1-checkpoint");
  ASSERT_TRUE(committed.ok());
  auto view = store_.Flatten(*committed);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->at("/data/state.json"), "{\"progress\":0.4}");
}

TEST_F(RuntimeTest, SpawnAndKillProcess) {
  auto c = runtime_.CreateContainer("vd1", ContainerKind::kVirtualDrone,
                                    image_);
  ASSERT_TRUE(runtime_.StartContainer((*c)->id()).ok());
  auto app = runtime_.SpawnProcess((*c)->id(), "com.example.survey", 10001);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ((*c)->processes().size(), 6u);
  EXPECT_TRUE(app->binder->alive());

  ASSERT_TRUE(runtime_.KillProcess(app->pid).ok());
  EXPECT_EQ((*c)->processes().size(), 5u);
  EXPECT_FALSE(runtime_.KillProcess(app->pid).ok());
}

TEST_F(RuntimeTest, SpawnInStoppedContainerFails) {
  auto c = runtime_.CreateContainer("vd1", ContainerKind::kVirtualDrone,
                                    image_);
  auto app = runtime_.SpawnProcess((*c)->id(), "app", 10001);
  EXPECT_EQ(app.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RuntimeTest, RemoveRequiresStopped) {
  auto c = runtime_.CreateContainer("vd1", ContainerKind::kVirtualDrone,
                                    image_);
  const ContainerId id = (*c)->id();
  ASSERT_TRUE(runtime_.StartContainer(id).ok());
  EXPECT_EQ(runtime_.RemoveContainer(id).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(runtime_.StopContainer(id).ok());
  EXPECT_TRUE(runtime_.RemoveContainer(id).ok());
  EXPECT_FALSE(runtime_.Find(id).ok());
}

TEST_F(RuntimeTest, DuplicateContainerNameRejected) {
  ASSERT_TRUE(runtime_.CreateContainer("x", ContainerKind::kVirtualDrone,
                                       image_).ok());
  EXPECT_EQ(runtime_.CreateContainer("x", ContainerKind::kVirtualDrone, image_)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(RuntimeTest, FindByName) {
  auto c = runtime_.CreateContainer("flight", ContainerKind::kFlight, image_);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(runtime_.FindByName("flight").value(), *c);
  EXPECT_FALSE(runtime_.FindByName("nope").ok());
}

}  // namespace
}  // namespace androne
