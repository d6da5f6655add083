// Virtual Drone Controller (paper §4.4): the native daemon on the physical
// drone that manages virtual drones. It creates/restores their containers,
// installs apps with manifest-derived permissions, arbitrates device access
// through the waypoint/continuous policy (including suspension while other
// tenants operate), enforces revocation by terminating processes that keep
// using a device after notification, accounts each tenant's energy/time
// allotment, answers the flight container's flight-control permission
// queries, and saves virtual drones back to the VDR after the flight.
#ifndef SRC_CORE_VDC_H_
#define SRC_CORE_VDC_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cloud/billing.h"
#include "src/cloud/vdr.h"
#include "src/container/runtime.h"
#include "src/core/definition.h"
#include "src/core/manifest.h"
#include "src/core/sdk.h"
#include "src/services/app.h"
#include "src/services/system_server.h"
#include "src/util/sim_clock.h"

namespace androne {

// Why a tenancy at a waypoint ended.
enum class TenancyEndReason {
  kCompleted,        // App called waypointCompleted().
  kEnergyExhausted,  // Allotment spent.
  kTimeExhausted,    // Max duration reached.
  kInterrupted,      // Weather / operator abort: resume on a later flight.
};

const char* TenancyEndReasonName(TenancyEndReason reason);

// An AnDrone app: an Android app that talks to the SDK. Subclasses are
// registered with the VDC's app registry by package name.
class AndroneApp : public AndroidApp, public WaypointListener {
 public:
  AndroneApp(std::string package, Uid uid) : AndroidApp(std::move(package), uid) {}

  // Called by the VDC after Create(); gives the app its SDK and arguments.
  void AttachSdk(AndroneSdk* sdk, const JsonValue& args);
  AndroneSdk* sdk() const { return sdk_; }
  const JsonValue& args() const { return args_; }

 protected:
  // Invoked once the SDK is attached (a good place to register listeners —
  // the base class already registered itself).
  virtual void OnAttached() {}

 private:
  AndroneSdk* sdk_ = nullptr;
  JsonValue args_;
};

// Factory producing an app instance for a package.
using AppFactory = std::function<std::unique_ptr<AndroneApp>()>;

// One deployed virtual drone and all its runtime state.
struct VirtualDroneInstance {
  VirtualDroneDefinition definition;
  Container* container = nullptr;
  VirtualDroneStack stack;
  std::unique_ptr<AndroneSdk> sdk;
  std::vector<std::unique_ptr<AndroneApp>> apps;
  std::map<std::string, Pid> app_pids;

  // Flight-state.
  bool at_waypoint = false;
  size_t current_waypoint = 0;
  bool reached_first_waypoint = false;  // Gates continuous devices.
  bool finished_last_waypoint = false;
  bool suspended = false;               // Another tenant is operating.
  bool exhausted = false;               // Energy or time spent.
  bool completed_current = false;       // waypointCompleted() received.
  size_t waypoints_served = 0;

  // Accounting.
  double energy_used_j = 0;
  double time_used_s = 0;
  bool low_energy_warned = false;
  bool low_time_warned = false;

  std::vector<std::string> files_for_user;  // Container paths.

  double EnergyLeftJ() const {
    return definition.energy_allotted_j - energy_used_j;
  }
  double TimeLeftS() const { return definition.max_duration_s - time_used_s; }
};

class Vdc {
 public:
  Vdc(SimClock* clock, ContainerRuntime* runtime,
      DeviceContainerStack* device_stack, VirtualDroneRepository* vdr,
      CloudStorage* cloud_storage, ImageId base_image);

  // Registers an app implementation (the on-drone equivalent of having the
  // APK installed in the image).
  void RegisterAppFactory(const std::string& package, AppFactory factory,
                          const std::string& manifest_xml);

  // Optional app store: when attached, Deploy() installs each app's APK
  // payload and manifest into the virtual drone's writable layer, so the
  // bits travel with the image to the VDR and onto other drones.
  void AttachAppStore(const AppStore* app_store) { app_store_ = app_store; }

  // Creates (or restores from the VDR) the virtual drone's container, boots
  // its Android stack, installs and starts its apps.
  StatusOr<VirtualDroneInstance*> Deploy(const VirtualDroneDefinition& def);

  // --- Flight-planner notifications ---
  // The physical drone arrived at |vdrone_id|'s waypoint |index|; grants
  // waypoint devices + flight control and suspends other tenants'
  // continuous access (paper §2 privacy default).
  Status NotifyWaypointReached(const std::string& vdrone_id, size_t index);
  // The tenancy ended (the executor moves on); revokes and re-enables
  // other tenants' continuous access.
  Status NotifyWaypointLeft(const std::string& vdrone_id,
                            TenancyEndReason reason);
  // Geofence events for the active tenant.
  void NotifyFenceBreach();
  void NotifyFenceRecovered();

  // --- Policy queries ---
  // ActivityManager policy hook: may |container| use |permission| now?
  bool AllowsDevicePermission(ContainerId container,
                              const std::string& permission) const;
  // Flight container query (wired into each tenant's VFC).
  bool AllowsFlightControl(const std::string& vdrone_id) const;

  // --- Accounting ---
  // Charges the active tenant for |dt| of drone operation; fires warnings
  // and flags exhaustion. Returns true while the tenancy may continue.
  bool AccountActiveTenant(SimDuration dt);

  // Fired when the active tenancy must end (completed or exhausted);
  // the flight executor subscribes and then calls NotifyWaypointLeft.
  void SetTenancyEndCallback(
      std::function<void(const std::string& vdrone_id, TenancyEndReason)> cb) {
    on_tenancy_end_ = std::move(cb);
  }

  // --- End of flight ---
  // Saves app state + container image (+definition) into the VDR.
  Status StoreToVdr(const std::string& vdrone_id, bool resumable);
  // Copies files marked for the user into cloud storage.
  Status OffloadFiles(const std::string& vdrone_id);
  // Stops the container.
  Status Teardown(const std::string& vdrone_id);

  // Post-flight invoice per tenant: drone usage billed by energy like a
  // utility, plus cloud storage for offloaded files (paper §2).
  struct TenantInvoice {
    std::string vdrone_id;
    std::string owner;
    double energy_used_j = 0;
    double energy_cost = 0;
    double time_used_s = 0;
    uint64_t storage_bytes = 0;
    double storage_cost = 0;
    double total = 0;
  };
  StatusOr<TenantInvoice> InvoiceFor(const std::string& vdrone_id,
                                     const Billing& billing);

  StatusOr<VirtualDroneInstance*> Find(const std::string& vdrone_id);
  const std::string& active_tenant() const { return active_tenant_; }
  std::vector<VirtualDroneInstance*> instances();

  // --- Checkpoint/restore (DESIGN.md §13) ---
  // Persists the per-tenant flight/accounting state, the active tenancy, and
  // the uid allocator. The restoring VDC must hold the identical deployment
  // roster (same Deploy calls in the same order) before the load.
  // Instantiated for SaveArchive and LoadArchive in vdc.cc.
  template <class Ar>
  Status Visit(Ar& ar);

 private:
  Status InstallApps(VirtualDroneInstance& vd);
  void GrantManifestPermissions(VirtualDroneInstance& vd,
                                const AndroneManifest& manifest, Uid uid);
  // Notifies then kills processes still holding devices (paper §4.4).
  void EnforceDeviceRevocation(VirtualDroneInstance& vd);
  void SuspendOtherContinuousTenants(const std::string& except);
  void ResumeOtherContinuousTenants(const std::string& except);
  void EndTenancy(VirtualDroneInstance& vd, TenancyEndReason reason);

  SimClock* clock_;
  ContainerRuntime* runtime_;
  DeviceContainerStack* device_stack_;
  VirtualDroneRepository* vdr_;
  CloudStorage* cloud_storage_;
  const AppStore* app_store_ = nullptr;
  ImageId base_image_;

  struct RegisteredApp {
    AppFactory factory;
    AndroneManifest manifest;
  };
  std::map<std::string, RegisteredApp> app_registry_;
  std::map<std::string, std::unique_ptr<VirtualDroneInstance>> vdrones_;
  std::map<ContainerId, std::string> by_container_;
  std::string active_tenant_;  // Empty when in transit.
  std::function<void(const std::string&, TenancyEndReason)> on_tenancy_end_;
  Uid next_app_uid_ = 10001;
};

}  // namespace androne

#endif  // SRC_CORE_VDC_H_
