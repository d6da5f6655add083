#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "src/binder/binder_driver.h"
#include "src/binder/parcel.h"
#include "src/binder/service_manager.h"

namespace androne {
namespace {

// A service that echoes strings and reports who called it.
class EchoService : public BinderObject {
 public:
  static constexpr uint32_t kEcho = 10;
  static constexpr uint32_t kWhoAmI = 11;

  Status OnTransact(uint32_t code, const Parcel& data, Parcel* reply,
                    const BinderCallContext& ctx) override {
    switch (code) {
      case kEcho: {
        ASSIGN_OR_RETURN(std::string s, data.ReadString());
        reply->WriteString(s);
        return OkStatus();
      }
      case kWhoAmI:
        reply->WriteInt32(ctx.calling_pid);
        reply->WriteInt32(ctx.calling_euid);
        reply->WriteInt32(ctx.calling_container);
        return OkStatus();
      default:
        return UnimplementedError("bad code");
    }
  }
  std::string descriptor() const override { return "EchoService"; }
};

TEST(ParcelTest, TypedRoundTrip) {
  Parcel p;
  p.WriteInt32(-5);
  p.WriteInt64(1LL << 40);
  p.WriteDouble(2.5);
  p.WriteBool(true);
  p.WriteString("drone");
  p.WriteFd(77);
  EXPECT_EQ(p.ReadInt32().value(), -5);
  EXPECT_EQ(p.ReadInt64().value(), 1LL << 40);
  EXPECT_DOUBLE_EQ(p.ReadDouble().value(), 2.5);
  EXPECT_TRUE(p.ReadBool().value());
  EXPECT_EQ(p.ReadString().value(), "drone");
  EXPECT_EQ(p.ReadFd().value(), 77);
  EXPECT_EQ(p.ReadInt32().status().code(), StatusCode::kOutOfRange);
}

TEST(ParcelTest, TypeMismatchFails) {
  Parcel p;
  p.WriteString("x");
  EXPECT_EQ(p.ReadInt32().status().code(), StatusCode::kInvalidArgument);
}

TEST(ParcelTest, ResetReadCursorRewinds) {
  Parcel p;
  p.WriteInt32(1);
  EXPECT_EQ(p.ReadInt32().value(), 1);
  p.ResetReadCursor();
  EXPECT_EQ(p.ReadInt32().value(), 1);
}

class BinderFixture : public ::testing::Test {
 protected:
  BinderDriver driver_;
};

TEST_F(BinderFixture, BasicTransaction) {
  BinderProc* server = driver_.CreateProcess(100, 1000, 1);
  BinderProc* client = driver_.CreateProcess(200, 1001, 1);
  // Share the service via the container's ServiceManager.
  BinderProc* sm_proc = driver_.CreateProcess(50, 1000, 1);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());
  BinderHandle h = server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(server, "echo", h).ok());

  auto client_handle = SmGetService(client, "echo");
  ASSERT_TRUE(client_handle.ok());
  Parcel req;
  req.WriteString("hello");
  auto reply = client->Transact(*client_handle, EchoService::kEcho, req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ReadString().value(), "hello");
}

TEST_F(BinderFixture, TransactionCarriesCallerIdentity) {
  BinderProc* server = driver_.CreateProcess(100, 1000, 3);
  BinderProc* sm_proc = driver_.CreateProcess(50, 1000, 3);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());
  BinderHandle h = server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(server, "echo", h).ok());

  BinderProc* client = driver_.CreateProcess(222, 4444, 3);
  auto ch = SmGetService(client, "echo");
  ASSERT_TRUE(ch.ok());
  Parcel empty;
  auto reply = client->Transact(*ch, EchoService::kWhoAmI, empty);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ReadInt32().value(), 222);   // PID.
  EXPECT_EQ(reply->ReadInt32().value(), 4444);  // EUID.
  EXPECT_EQ(reply->ReadInt32().value(), 3);     // Container id (AnDrone).
}

TEST_F(BinderFixture, HandlesCannotBeForged) {
  BinderProc* server = driver_.CreateProcess(100, 1000, 1);
  BinderProc* outsider = driver_.CreateProcess(300, 1002, 2);
  BinderHandle h = server->RegisterObject(std::make_shared<EchoService>());
  // The outsider never received the handle; guessing its numeric value
  // resolves against the *outsider's* empty table.
  Parcel req;
  req.WriteString("attack");
  auto reply = outsider->Transact(h, EchoService::kEcho, req);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
}

TEST_F(BinderFixture, ContextManagerIsPerContainer) {
  BinderProc* sm1 = driver_.CreateProcess(10, 1000, 1);
  BinderProc* sm2 = driver_.CreateProcess(20, 1000, 2);
  ASSERT_TRUE(ServiceManager::Install(sm1).ok());
  ASSERT_TRUE(ServiceManager::Install(sm2).ok());

  // Register "svc" only in container 1.
  BinderProc* server = driver_.CreateProcess(11, 1000, 1);
  BinderHandle h = server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(server, "svc", h).ok());

  BinderProc* c1 = driver_.CreateProcess(12, 1000, 1);
  BinderProc* c2 = driver_.CreateProcess(22, 1000, 2);
  EXPECT_TRUE(SmGetService(c1, "svc").ok());
  // Container 2's namespace does not see container 1's service: isolation.
  EXPECT_EQ(SmGetService(c2, "svc").status().code(), StatusCode::kNotFound);
}

TEST_F(BinderFixture, OnlyOneContextManagerPerContainer) {
  BinderProc* sm1 = driver_.CreateProcess(10, 1000, 1);
  BinderProc* sm1b = driver_.CreateProcess(11, 1000, 1);
  ASSERT_TRUE(ServiceManager::Install(sm1).ok());
  auto second = ServiceManager::Install(sm1b);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(BinderFixture, NoContextManagerMeansUnavailable) {
  BinderProc* lonely = driver_.CreateProcess(10, 1000, 9);
  EXPECT_EQ(SmGetService(lonely, "anything").status().code(),
            StatusCode::kUnavailable);
}

TEST_F(BinderFixture, PublishToAllNamespacesRequiresDeviceContainer) {
  driver_.set_device_container(7);
  BinderProc* imposter = driver_.CreateProcess(10, 1000, 3);
  BinderHandle h = imposter->RegisterObject(std::make_shared<EchoService>());
  Status s = imposter->PublishToAllNamespaces("camera", h);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
}

// Full device-container publishing flow from the paper's Figure 6.
TEST_F(BinderFixture, DeviceContainerServicePublishing) {
  constexpr ContainerId kDev = 1, kVd1 = 2, kVd2 = 3;
  driver_.set_device_container(kDev);

  // Device container ServiceManager auto-publishes Table 1 services.
  BinderProc* dev_sm_proc = driver_.CreateProcess(10, 1000, kDev);
  ServiceManager::Options dev_opts;
  dev_opts.shared_service_names = {"media.camera", "sensorservice"};
  auto dev_sm = ServiceManager::Install(dev_sm_proc, dev_opts);
  ASSERT_TRUE(dev_sm.ok());

  // Virtual drone 1 exists before the service registers.
  BinderProc* vd1_sm_proc = driver_.CreateProcess(20, 1000, kVd1);
  ASSERT_TRUE(ServiceManager::Install(vd1_sm_proc).ok());

  // Device service registers in the device container.
  BinderProc* camera_proc = driver_.CreateProcess(11, 1047, kDev);
  BinderHandle camera =
      camera_proc->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(camera_proc, "media.camera", camera).ok());

  // An unshared service stays private to the device container.
  BinderHandle priv =
      camera_proc->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(camera_proc, "private.dev", priv).ok());

  // Virtual drone 2 is created *after* publication; it must still see it.
  BinderProc* vd2_sm_proc = driver_.CreateProcess(30, 1000, kVd2);
  ASSERT_TRUE(ServiceManager::Install(vd2_sm_proc).ok());

  BinderProc* app1 = driver_.CreateProcess(21, 10001, kVd1);
  BinderProc* app2 = driver_.CreateProcess(31, 10002, kVd2);
  auto h1 = SmGetService(app1, "media.camera");
  auto h2 = SmGetService(app2, "media.camera");
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(SmGetService(app1, "private.dev").status().code(),
            StatusCode::kNotFound);

  // Both resolve to the same node: transacting reaches the device container.
  Parcel req;
  auto who = app1->Transact(*h1, EchoService::kWhoAmI, req);
  ASSERT_TRUE(who.ok());

  // And the service can identify each calling container distinctly.
  auto who2 = app2->Transact(*h2, EchoService::kWhoAmI, req);
  ASSERT_TRUE(who2.ok());
  who->ReadInt32().value();  // pid
  who->ReadInt32().value();  // euid
  who2->ReadInt32().value();
  who2->ReadInt32().value();
  EXPECT_EQ(who->ReadInt32().value(), kVd1);
  EXPECT_EQ(who2->ReadInt32().value(), kVd2);
}

TEST_F(BinderFixture, PublishActivityManagerToDeviceContainer) {
  constexpr ContainerId kDev = 1, kVd = 5;
  driver_.set_device_container(kDev);
  BinderProc* dev_sm_proc = driver_.CreateProcess(10, 1000, kDev);
  auto dev_sm = ServiceManager::Install(dev_sm_proc);
  ASSERT_TRUE(dev_sm.ok());

  BinderProc* vd_sm_proc = driver_.CreateProcess(20, 1000, kVd);
  ServiceManager::Options vd_opts;
  vd_opts.publish_activity_manager_to_device_container = true;
  ASSERT_TRUE(ServiceManager::Install(vd_sm_proc, vd_opts).ok());

  // The vdrone's ActivityManager registers locally...
  BinderProc* am_proc = driver_.CreateProcess(21, 1000, kVd);
  BinderHandle am = am_proc->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(am_proc, kActivityManagerService, am).ok());

  // ...and becomes visible in the device container as "activity@5".
  BinderProc* dev_svc = driver_.CreateProcess(12, 1000, kDev);
  auto h = SmGetService(dev_svc, std::string(kActivityManagerService) + "@5");
  ASSERT_TRUE(h.ok());
  Parcel req;
  req.WriteString("ping");
  EXPECT_TRUE(dev_svc->Transact(*h, EchoService::kEcho, req).ok());
}

TEST_F(BinderFixture, BinderHandlePassingThroughParcels) {
  BinderProc* sm_proc = driver_.CreateProcess(10, 1000, 1);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());

  // A service that hands out a reference to a second service.
  class Factory : public BinderObject {
   public:
    explicit Factory(BinderProc* proc) : proc_(proc) {}
    Status OnTransact(uint32_t code, const Parcel& data, Parcel* reply,
                      const BinderCallContext& ctx) override {
      (void)code;
      (void)data;
      (void)ctx;
      BinderHandle inner =
          proc_->RegisterObject(std::make_shared<EchoService>());
      reply->WriteBinderHandle(inner);
      return OkStatus();
    }

   private:
    BinderProc* proc_;
  };

  BinderProc* server = driver_.CreateProcess(11, 1000, 1);
  BinderHandle fh = server->RegisterObject(std::make_shared<Factory>(server));
  ASSERT_TRUE(SmAddService(server, "factory", fh).ok());

  BinderProc* client = driver_.CreateProcess(12, 1000, 1);
  auto factory = SmGetService(client, "factory");
  ASSERT_TRUE(factory.ok());
  Parcel req;
  auto reply = client->Transact(*factory, 1, req);
  ASSERT_TRUE(reply.ok());
  auto inner = reply->ReadBinderHandle();
  ASSERT_TRUE(inner.ok());
  Parcel echo_req;
  echo_req.WriteString("via factory");
  auto echoed = client->Transact(*inner, EchoService::kEcho, echo_req);
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed->ReadString().value(), "via factory");
}

TEST_F(BinderFixture, DeadProcessNodesBecomeUnavailable) {
  BinderProc* sm_proc = driver_.CreateProcess(10, 1000, 1);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());
  BinderProc* server = driver_.CreateProcess(11, 1000, 1);
  BinderHandle h = server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(server, "echo", h).ok());
  BinderProc* client = driver_.CreateProcess(12, 1000, 1);
  auto ch = SmGetService(client, "echo");
  ASSERT_TRUE(ch.ok());

  driver_.DestroyProcess(11);
  Parcel req;
  req.WriteString("x");
  auto reply = client->Transact(*ch, EchoService::kEcho, req);
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

TEST_F(BinderFixture, DestroyContainerKillsAllItsProcesses) {
  BinderProc* sm_proc = driver_.CreateProcess(10, 1000, 4);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());
  driver_.CreateProcess(11, 1000, 4);
  driver_.CreateProcess(12, 1000, 4);
  BinderProc* other = driver_.CreateProcess(13, 1000, 5);
  EXPECT_EQ(driver_.process_count(), 4u);
  driver_.DestroyContainer(4);
  EXPECT_EQ(driver_.process_count(), 1u);
  EXPECT_FALSE(driver_.HasContextManager(4));
  EXPECT_TRUE(other->alive());
}

TEST_F(BinderFixture, TransactionCountIncrements) {
  BinderProc* sm_proc = driver_.CreateProcess(10, 1000, 1);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());
  BinderProc* client = driver_.CreateProcess(12, 1000, 1);
  uint64_t before = driver_.transaction_count();
  (void)SmListServices(client);
  EXPECT_GT(driver_.transaction_count(), before);
}

TEST_F(BinderFixture, SmListServicesReturnsNames) {
  BinderProc* sm_proc = driver_.CreateProcess(10, 1000, 1);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());
  BinderProc* server = driver_.CreateProcess(11, 1000, 1);
  BinderHandle h1 = server->RegisterObject(std::make_shared<EchoService>());
  BinderHandle h2 = server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(server, "alpha", h1).ok());
  ASSERT_TRUE(SmAddService(server, "beta", h2).ok());
  auto names = SmListServices(server);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);
}

TEST_F(BinderFixture, SmGetServiceRejectsDeadProcess) {
  // The VDC clears an app's BinderProc binding when it kills the process;
  // lookups through the dead binding must fail cleanly, not crash.
  auto result = SmGetService(nullptr, "anything");
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// ---- Lookup cache + fast-path semantics (DESIGN.md §10) ----

TEST_F(BinderFixture, ServiceCacheHitsAfterFirstLookup) {
  BinderProc* sm_proc = driver_.CreateProcess(10, 1000, 1);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());
  BinderProc* server = driver_.CreateProcess(11, 1000, 1);
  BinderHandle h = server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(server, "echo", h).ok());

  BinderProc* client = driver_.CreateProcess(12, 1000, 1);
  ServiceCache cache(client);
  auto first = cache.Get("echo");
  ASSERT_TRUE(first.ok());
  uint64_t transactions = driver_.transaction_count();
  auto second = cache.Get("echo");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  // The hit resolved with zero binder transactions.
  EXPECT_EQ(driver_.transaction_count(), transactions);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // The cached handle still transacts like a fresh lookup.
  Parcel req;
  req.WriteString("ping");
  auto reply = client->Transact(*second, EchoService::kEcho, req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ReadString().value(), "ping");
}

TEST_F(BinderFixture, ServiceCacheInvalidatesOnReRegistration) {
  BinderProc* sm_proc = driver_.CreateProcess(10, 1000, 1);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());
  BinderProc* server = driver_.CreateProcess(11, 1000, 1);
  BinderHandle h1 = server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(server, "svc", h1).ok());

  BinderProc* client = driver_.CreateProcess(12, 1000, 1);
  ServiceCache cache(client);
  auto before = cache.Get("svc");
  ASSERT_TRUE(before.ok());

  // Rebinding the name bumps the lookup epoch; the next Get must go back to
  // the context manager instead of serving the stale handle.
  BinderHandle h2 = server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(server, "svc", h2).ok());
  auto after = cache.Get("svc");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*before, *after);
  auto fresh = SmGetService(client, "svc");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*after, *fresh);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST_F(BinderFixture, ServiceCacheInvalidatesOnContextManagerChange) {
  BinderProc* sm_proc = driver_.CreateProcess(10, 1000, 5);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());
  BinderProc* server = driver_.CreateProcess(11, 1000, 5);
  BinderHandle h = server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(server, "svc", h).ok());

  BinderProc* client = driver_.CreateProcess(12, 1000, 5);
  ServiceCache cache(client);
  ASSERT_TRUE(cache.Get("svc").ok());

  // The container's namespace is rebuilt: old context manager dies, a fresh
  // one (with no registrations) takes over. A stale cache hit here would
  // fabricate a service that no longer exists in the namespace.
  driver_.DestroyProcess(10);
  BinderProc* new_sm_proc = driver_.CreateProcess(20, 1000, 5);
  ASSERT_TRUE(ServiceManager::Install(new_sm_proc).ok());
  EXPECT_EQ(cache.Get("svc").status().code(), StatusCode::kNotFound);
}

TEST_F(BinderFixture, ServiceCacheFollowsPublishToAllNamespaces) {
  constexpr ContainerId kDev = 1, kVd = 2;
  driver_.set_device_container(kDev);
  BinderProc* dev_sm_proc = driver_.CreateProcess(10, 1000, kDev);
  ServiceManager::Options dev_opts;
  dev_opts.shared_service_names = {"sensorservice"};
  ASSERT_TRUE(ServiceManager::Install(dev_sm_proc, dev_opts).ok());
  BinderProc* dev_server = driver_.CreateProcess(11, 1000, kDev);
  BinderHandle h1 =
      dev_server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(dev_server, "sensorservice", h1).ok());

  // The virtual drone's namespace receives the replayed publication; its
  // cache resolves through its own context manager.
  BinderProc* vd_sm_proc = driver_.CreateProcess(20, 1000, kVd);
  ASSERT_TRUE(ServiceManager::Install(vd_sm_proc).ok());
  BinderProc* vd_client = driver_.CreateProcess(21, 1000, kVd);
  ServiceCache cache(vd_client);
  auto before = cache.Get("sensorservice");
  ASSERT_TRUE(before.ok());

  // Re-publication in the device container fans out to every namespace and
  // must invalidate caches in *other* containers too.
  BinderHandle h2 =
      dev_server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(dev_server, "sensorservice", h2).ok());
  auto after = cache.Get("sensorservice");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*before, *after);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST_F(BinderFixture, ServiceCacheFollowsPublishToDeviceContainer) {
  constexpr ContainerId kDev = 1, kVd = 4;
  driver_.set_device_container(kDev);
  BinderProc* dev_sm_proc = driver_.CreateProcess(10, 1000, kDev);
  ASSERT_TRUE(ServiceManager::Install(dev_sm_proc).ok());

  // Virtual drone publishes its ActivityManager toward the device container
  // under the scoped name "activity@<container>".
  BinderProc* vd_sm_proc = driver_.CreateProcess(20, 1000, kVd);
  ServiceManager::Options vd_opts;
  vd_opts.publish_activity_manager_to_device_container = true;
  ASSERT_TRUE(ServiceManager::Install(vd_sm_proc, vd_opts).ok());
  BinderProc* vd_server = driver_.CreateProcess(21, 1000, kVd);
  BinderHandle h = vd_server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(vd_server, kActivityManagerService, h).ok());

  BinderProc* dev_client = driver_.CreateProcess(12, 1000, kDev);
  ServiceCache cache(dev_client);
  std::string scoped = std::string(kActivityManagerService) + "@" +
                       std::to_string(kVd);
  ASSERT_TRUE(cache.Get(scoped).ok());
  uint64_t transactions = driver_.transaction_count();
  ASSERT_TRUE(cache.Get(scoped).ok());
  EXPECT_EQ(driver_.transaction_count(), transactions);

  // Tearing down the tenant container changes the namespace: the cached
  // resolution must die with it (the node is dead even though the name may
  // linger in the device container's table).
  driver_.DestroyContainer(kVd);
  auto gone = cache.Get(scoped);
  if (gone.ok()) {
    Parcel req;
    req.WriteString("stale");
    EXPECT_FALSE(dev_client->Transact(*gone, EchoService::kEcho, req).ok());
  }
}

TEST_F(BinderFixture, ServiceCacheDoesNotCacheNegatives) {
  BinderProc* sm_proc = driver_.CreateProcess(10, 1000, 1);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());
  BinderProc* client = driver_.CreateProcess(12, 1000, 1);
  ServiceCache cache(client);
  EXPECT_EQ(cache.Get("late").status().code(), StatusCode::kNotFound);

  BinderProc* server = driver_.CreateProcess(11, 1000, 1);
  BinderHandle h = server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(server, "late", h).ok());
  EXPECT_TRUE(cache.Get("late").ok());
}

TEST_F(BinderFixture, LookupEpochAdvancesOnlyOnRebindingEvents) {
  BinderProc* sm_proc = driver_.CreateProcess(10, 1000, 1);
  ASSERT_TRUE(ServiceManager::Install(sm_proc).ok());
  BinderProc* server = driver_.CreateProcess(11, 1000, 1);
  BinderHandle h = server->RegisterObject(std::make_shared<EchoService>());
  ASSERT_TRUE(SmAddService(server, "echo", h).ok());

  BinderProc* client = driver_.CreateProcess(12, 1000, 1);
  auto ch = SmGetService(client, "echo");
  ASSERT_TRUE(ch.ok());
  uint64_t epoch = driver_.lookup_epoch();
  // Plain transactions (neither registration nor namespace change) must not
  // churn the epoch, or the cache would never hit.
  Parcel req;
  req.WriteString("x");
  ASSERT_TRUE(client->Transact(*ch, EchoService::kEcho, req).ok());
  ASSERT_TRUE(SmGetService(client, "echo").ok());
  EXPECT_EQ(driver_.lookup_epoch(), epoch);
  ASSERT_TRUE(SmAddService(server, "echo2", h).ok());
  EXPECT_GT(driver_.lookup_epoch(), epoch);
}

}  // namespace
}  // namespace androne
