#include "src/core/vdc.h"

#include <algorithm>

#include "src/services/device_services.h"
#include "src/services/permissions.h"
#include "src/snapshot/archive.h"
#include "src/util/logging.h"

namespace androne {

namespace {
// Fraction of the allotment remaining at which low-X warnings fire.
constexpr double kWarningFraction = 0.2;
// Power attributed to a tenant while it operates at a waypoint.
constexpr double kTenancyPowerW = 170.0;
// Virtual flight controller address reported by the SDK.
constexpr char kVfcAddress[] = "10.77.0.1:5760";
}  // namespace

const char* TenancyEndReasonName(TenancyEndReason reason) {
  switch (reason) {
    case TenancyEndReason::kCompleted:
      return "completed";
    case TenancyEndReason::kEnergyExhausted:
      return "energy-exhausted";
    case TenancyEndReason::kTimeExhausted:
      return "time-exhausted";
    case TenancyEndReason::kInterrupted:
      return "interrupted";
  }
  return "unknown";
}

void AndroneApp::AttachSdk(AndroneSdk* sdk, const JsonValue& args) {
  sdk_ = sdk;
  args_ = args;
  sdk_->RegisterWaypointListener(this);
  OnAttached();
}

Vdc::Vdc(SimClock* clock, ContainerRuntime* runtime,
         DeviceContainerStack* device_stack, VirtualDroneRepository* vdr,
         CloudStorage* cloud_storage, ImageId base_image)
    : clock_(clock), runtime_(runtime), device_stack_(device_stack),
      vdr_(vdr), cloud_storage_(cloud_storage), base_image_(base_image) {}

void Vdc::RegisterAppFactory(const std::string& package, AppFactory factory,
                             const std::string& manifest_xml) {
  auto manifest = AndroneManifest::Parse(manifest_xml);
  if (!manifest.ok()) {
    ALOG(kError, "vdc") << "bad manifest for " << package << ": "
                        << manifest.status();
    return;
  }
  app_registry_[package] = RegisteredApp{std::move(factory), *manifest};
}

StatusOr<VirtualDroneInstance*> Vdc::Deploy(
    const VirtualDroneDefinition& def) {
  RETURN_IF_ERROR(def.Validate());
  if (def.id.empty()) {
    return InvalidArgumentError("definition needs an id before deployment");
  }
  if (vdrones_.count(def.id) > 0) {
    return AlreadyExistsError("virtual drone '" + def.id +
                              "' already deployed");
  }

  auto vd = std::make_unique<VirtualDroneInstance>();
  vd->definition = def;

  // Resume from the VDR when a saved image exists; else a clean container
  // from the shared base image (paper §3).
  ImageId image = base_image_;
  if (vdr_ != nullptr && vdr_->Contains(def.id)) {
    ASSIGN_OR_RETURN(StoredVirtualDrone stored, vdr_->Load(def.id));
    if (!stored.image.empty()) {
      ASSIGN_OR_RETURN(image, runtime_->images()->Import(stored.image));
      ALOG(kInfo, "vdc") << "resuming " << def.id << " from the VDR";
    }
    // Restore tenancy progress so allotments and served waypoints carry
    // across flights (and across physical drones).
    const VirtualDroneProgress& progress = stored.progress;
    vd->waypoints_served = progress.waypoints_served;
    vd->energy_used_j = progress.energy_used_j;
    vd->time_used_s = progress.time_used_s;
    vd->reached_first_waypoint = progress.reached_first_waypoint;
    vd->finished_last_waypoint = progress.finished_last_waypoint;
    vd->exhausted = progress.exhausted;
  }

  ASSIGN_OR_RETURN(
      vd->container,
      runtime_->CreateContainer(def.id, ContainerKind::kVirtualDrone, image));
  RETURN_IF_ERROR(runtime_->StartContainer(vd->container->id()));
  ASSIGN_OR_RETURN(vd->stack,
                   BootVirtualDrone(*runtime_, vd->container->id()));

  // Wire this tenant's ActivityManager to the VDC device policy.
  ContainerId cid = vd->container->id();
  vd->stack.activity_manager->SetAndronePolicy(
      [this, cid](const std::string& permission, Uid uid) {
        (void)uid;
        return AllowsDevicePermission(cid, permission);
      });

  // SDK wiring.
  VirtualDroneInstance* raw = vd.get();
  AndroneSdk::Hooks hooks;
  hooks.waypoint_completed = [this, raw] {
    if (raw->at_waypoint) {
      raw->completed_current = true;
      EndTenancy(*raw, TenancyEndReason::kCompleted);
    }
  };
  hooks.allotted_energy_left = [raw] { return raw->EnergyLeftJ(); };
  hooks.allotted_time_left = [raw] { return raw->TimeLeftS(); };
  hooks.flight_controller_ip = [] { return std::string(kVfcAddress); };
  hooks.mark_file_for_user = [raw](const std::string& path) -> Status {
    if (!raw->container->ReadFile(path).ok()) {
      return NotFoundError("no such file in the virtual drone: " + path);
    }
    raw->files_for_user.push_back(path);
    return OkStatus();
  };
  vd->sdk = std::make_unique<AndroneSdk>(std::move(hooks));

  RETURN_IF_ERROR(InstallApps(*vd));

  by_container_[cid] = def.id;
  vdrones_[def.id] = std::move(vd);
  ALOG(kInfo, "vdc") << "deployed virtual drone " << def.id;
  return raw;
}

Status Vdc::InstallApps(VirtualDroneInstance& vd) {
  for (const std::string& package : vd.definition.apps) {
    auto registered = app_registry_.find(package);
    if (registered == app_registry_.end()) {
      return NotFoundError("app '" + package + "' is not installed on drone");
    }
    Uid uid = next_app_uid_++;
    ASSIGN_OR_RETURN(ContainerProcess proc,
                     runtime_->SpawnProcess(vd.container->id(), package, uid));
    vd.app_pids[package] = proc.pid;

    // Install the APK payload into the writable layer when the app store
    // carries it (skipped on resume if already present from the image).
    if (app_store_ != nullptr) {
      auto app_package = app_store_->Fetch(package);
      std::string apk_path = "/data/app/" + package + ".apk";
      if (app_package.ok() && !vd.container->ReadFile(apk_path).ok()) {
        vd.container->WriteFile(apk_path, app_package->apk_blob);
        vd.container->WriteFile("/data/app/" + package + ".manifest.xml",
                                app_package->manifest_xml);
      }
    }

    GrantManifestPermissions(vd, registered->second.manifest, uid);

    std::unique_ptr<AndroneApp> app = registered->second.factory();
    app->Create(proc.binder, vd.container);
    const JsonValue* args = vd.definition.app_args.Find(package);
    app->AttachSdk(vd.sdk.get(),
                   args != nullptr ? *args : JsonValue(JsonObject{}));
    vd.apps.push_back(std::move(app));
  }
  return OkStatus();
}

void Vdc::GrantManifestPermissions(VirtualDroneInstance& vd,
                                   const AndroneManifest& manifest, Uid uid) {
  // Static grant = manifest request ∩ definition's device list; dynamic
  // policy then gates by flight state.
  for (const ManifestPermission& perm : manifest.permissions) {
    if (!vd.definition.WantsDevice(perm.device)) {
      continue;
    }
    auto permission = DeviceToPermission(perm.device);
    if (permission.has_value()) {
      vd.stack.activity_manager->GrantPermission(uid, *permission);
    }
  }
}

bool Vdc::AllowsDevicePermission(ContainerId container,
                                 const std::string& permission) const {
  auto id_it = by_container_.find(container);
  if (id_it == by_container_.end()) {
    return false;
  }
  const VirtualDroneInstance& vd = *vdrones_.at(id_it->second);

  // Map the permission back to a device name.
  std::string device;
  for (const std::string& candidate : KnownDevices()) {
    if (DeviceToPermission(candidate) == permission) {
      device = candidate;
      break;
    }
  }
  if (device.empty()) {
    return false;
  }
  if (device == kDeviceFlightControl) {
    return AllowsFlightControl(id_it->second);
  }
  // Waypoint devices: only while at this tenant's own waypoint.
  auto in = [&device](const std::vector<std::string>& list) {
    return std::find(list.begin(), list.end(), device) != list.end();
  };
  if (vd.at_waypoint && in(vd.definition.waypoint_devices)) {
    return true;
  }
  // Continuous devices: from the first waypoint until the last, unless
  // suspended for another tenant's waypoint.
  if (in(vd.definition.continuous_devices)) {
    return vd.reached_first_waypoint && !vd.finished_last_waypoint &&
           !vd.suspended;
  }
  return false;
}

bool Vdc::AllowsFlightControl(const std::string& vdrone_id) const {
  auto it = vdrones_.find(vdrone_id);
  if (it == vdrones_.end()) {
    return false;
  }
  const VirtualDroneInstance& vd = *it->second;
  return vd.at_waypoint && !vd.exhausted &&
         vd.definition.WantsFlightControl();
}

Status Vdc::NotifyWaypointReached(const std::string& vdrone_id,
                                  size_t index) {
  ASSIGN_OR_RETURN(VirtualDroneInstance * vd, Find(vdrone_id));
  if (index >= vd->definition.waypoints.size()) {
    return OutOfRangeError("waypoint index out of range");
  }
  if (!active_tenant_.empty()) {
    return FailedPreconditionError("another tenancy is active: " +
                                   active_tenant_);
  }
  vd->at_waypoint = true;
  vd->current_waypoint = index;
  vd->reached_first_waypoint = true;
  vd->completed_current = false;
  active_tenant_ = vdrone_id;

  SuspendOtherContinuousTenants(vdrone_id);
  vd->sdk->NotifyWaypointActive(vd->definition.waypoints[index]);
  ALOG(kInfo, "vdc") << vdrone_id << " active at waypoint " << index;
  return OkStatus();
}

void Vdc::EndTenancy(VirtualDroneInstance& vd, TenancyEndReason reason) {
  if (on_tenancy_end_) {
    on_tenancy_end_(vd.definition.id, reason);
  }
}

Status Vdc::NotifyWaypointLeft(const std::string& vdrone_id,
                               TenancyEndReason reason) {
  ASSIGN_OR_RETURN(VirtualDroneInstance * vd, Find(vdrone_id));
  if (!vd->at_waypoint) {
    return FailedPreconditionError(vdrone_id + " is not at a waypoint");
  }
  vd->sdk->NotifyWaypointInactive(
      vd->definition.waypoints[vd->current_waypoint]);
  vd->at_waypoint = false;
  ++vd->waypoints_served;
  if (vd->waypoints_served >= vd->definition.waypoints.size() ||
      reason == TenancyEndReason::kEnergyExhausted ||
      reason == TenancyEndReason::kTimeExhausted) {
    vd->finished_last_waypoint = true;
  }
  active_tenant_.clear();

  // Apps are expected to voluntarily release devices on notification;
  // anything still holding one is terminated (paper §4.4).
  EnforceDeviceRevocation(*vd);
  ResumeOtherContinuousTenants(vdrone_id);
  ALOG(kInfo, "vdc") << vdrone_id << " left waypoint ("
                     << TenancyEndReasonName(reason) << ")";
  return OkStatus();
}

void Vdc::EnforceDeviceRevocation(VirtualDroneInstance& vd) {
  ContainerId cid = vd.container->id();
  DeviceService* services[] = {
      device_stack_->camera_service.get(),
      device_stack_->location_service.get(),
      device_stack_->sensor_service.get(),
      device_stack_->audio_service.get(),
  };
  for (DeviceService* service : services) {
    // Skip devices the tenant may legitimately keep (continuous access).
    for (Pid pid : service->ActivePids(cid)) {
      // Still permitted? Continuous tenants keep their grants.
      bool still_allowed = false;
      if (service == device_stack_->camera_service.get()) {
        still_allowed = AllowsDevicePermission(cid, kPermCamera);
      } else if (service == device_stack_->location_service.get()) {
        still_allowed = AllowsDevicePermission(cid, kPermGps);
      } else if (service == device_stack_->sensor_service.get()) {
        still_allowed = AllowsDevicePermission(cid, kPermSensors);
      } else {
        still_allowed = AllowsDevicePermission(cid, kPermMicrophone);
      }
      if (still_allowed) {
        continue;
      }
      ALOG(kWarning, "vdc") << "terminating pid " << pid << " of "
                            << vd.definition.id
                            << " for holding a revoked device";
      (void)runtime_->KillProcess(pid);
      service->DropClients(cid);
      // The driver just freed the process's BinderProc; clear the app's
      // binding so later app callbacks see a dead process, not a dangling
      // pointer.
      for (const auto& [package, app_pid] : vd.app_pids) {
        if (app_pid != pid) {
          continue;
        }
        for (auto& app : vd.apps) {
          if (app->package() == package) {
            app->NotifyProcessKilled();
          }
        }
      }
    }
  }
}

void Vdc::SuspendOtherContinuousTenants(const std::string& except) {
  for (auto& [id, vd] : vdrones_) {
    if (id == except || vd->suspended) {
      continue;
    }
    if (vd->reached_first_waypoint && !vd->finished_last_waypoint &&
        !vd->definition.continuous_devices.empty()) {
      vd->suspended = true;
      vd->sdk->NotifySuspendContinuousDevices();
    }
  }
}

void Vdc::ResumeOtherContinuousTenants(const std::string& except) {
  for (auto& [id, vd] : vdrones_) {
    if (id == except || !vd->suspended) {
      continue;
    }
    vd->suspended = false;
    vd->sdk->NotifyResumeContinuousDevices();
  }
}

void Vdc::NotifyFenceBreach() {
  if (active_tenant_.empty()) {
    return;
  }
  auto vd = Find(active_tenant_);
  if (vd.ok()) {
    (*vd)->sdk->NotifyGeofenceBreached();
  }
}

void Vdc::NotifyFenceRecovered() {
  if (active_tenant_.empty()) {
    return;
  }
  auto vd = Find(active_tenant_);
  if (vd.ok() && (*vd)->at_waypoint) {
    // Paper §5: control regained is signalled by a fresh waypointActive().
    (*vd)->sdk->NotifyWaypointActive(
        (*vd)->definition.waypoints[(*vd)->current_waypoint]);
  }
}

bool Vdc::AccountActiveTenant(SimDuration dt) {
  if (active_tenant_.empty()) {
    return true;
  }
  auto found = Find(active_tenant_);
  if (!found.ok()) {
    return true;
  }
  VirtualDroneInstance& vd = **found;
  double dts = ToSecondsF(dt);
  vd.energy_used_j += kTenancyPowerW * dts;
  vd.time_used_s += dts;

  double warn_energy =
      vd.definition.energy_allotted_j * kWarningFraction;
  if (!vd.low_energy_warned && vd.EnergyLeftJ() <= warn_energy) {
    vd.low_energy_warned = true;
    vd.sdk->NotifyLowEnergy(vd.EnergyLeftJ());
  }
  double warn_time = vd.definition.max_duration_s * kWarningFraction;
  if (!vd.low_time_warned && vd.TimeLeftS() <= warn_time) {
    vd.low_time_warned = true;
    vd.sdk->NotifyLowTime(vd.TimeLeftS());
  }

  if (vd.EnergyLeftJ() <= 0) {
    vd.exhausted = true;
    EndTenancy(vd, TenancyEndReason::kEnergyExhausted);
    return false;
  }
  if (vd.TimeLeftS() <= 0) {
    vd.exhausted = true;
    EndTenancy(vd, TenancyEndReason::kTimeExhausted);
    return false;
  }
  return true;
}

Status Vdc::StoreToVdr(const std::string& vdrone_id, bool resumable) {
  if (vdr_ == nullptr) {
    return FailedPreconditionError("no VDR attached");
  }
  ASSIGN_OR_RETURN(VirtualDroneInstance * vd, Find(vdrone_id));
  // Ask every app to persist its state first (activity lifecycle).
  for (auto& app : vd->apps) {
    app->SaveInstanceState();
  }
  ASSIGN_OR_RETURN(ImageId committed,
                   runtime_->Commit(vd->container->id(),
                                    vdrone_id + "-flight-" +
                                        std::to_string(clock_->now())));
  ASSIGN_OR_RETURN(std::vector<uint8_t> image,
                   runtime_->images()->Export(committed));
  StoredVirtualDrone stored;
  stored.definition = vd->definition;
  stored.image = std::move(image);
  stored.resumable = resumable;
  stored.progress.waypoints_served = vd->waypoints_served;
  stored.progress.energy_used_j = vd->energy_used_j;
  stored.progress.time_used_s = vd->time_used_s;
  stored.progress.reached_first_waypoint = vd->reached_first_waypoint;
  stored.progress.finished_last_waypoint = vd->finished_last_waypoint;
  stored.progress.exhausted = vd->exhausted;
  vdr_->Save(vdrone_id, std::move(stored));
  return OkStatus();
}

Status Vdc::OffloadFiles(const std::string& vdrone_id) {
  if (cloud_storage_ == nullptr) {
    return FailedPreconditionError("no cloud storage attached");
  }
  ASSIGN_OR_RETURN(VirtualDroneInstance * vd, Find(vdrone_id));
  for (const std::string& path : vd->files_for_user) {
    ASSIGN_OR_RETURN(std::string content, vd->container->ReadFile(path));
    cloud_storage_->Put(vd->definition.owner, vdrone_id + path,
                        std::move(content));
  }
  return OkStatus();
}

StatusOr<Vdc::TenantInvoice> Vdc::InvoiceFor(const std::string& vdrone_id,
                                             const Billing& billing) {
  ASSIGN_OR_RETURN(VirtualDroneInstance * vd, Find(vdrone_id));
  TenantInvoice invoice;
  invoice.vdrone_id = vdrone_id;
  invoice.owner = vd->definition.owner;
  invoice.energy_used_j = vd->energy_used_j;
  invoice.time_used_s = vd->time_used_s;
  invoice.energy_cost = vd->energy_used_j / 1e6 *
                        billing.policy().dollars_per_megajoule;
  for (const std::string& path : vd->files_for_user) {
    auto content = vd->container->ReadFile(path);
    if (content.ok()) {
      invoice.storage_bytes += content->size();
    }
  }
  invoice.storage_cost = static_cast<double>(invoice.storage_bytes) / 1e9 *
                         billing.policy().dollars_per_gb_stored;
  invoice.total = invoice.energy_cost + invoice.storage_cost;
  return invoice;
}

Status Vdc::Teardown(const std::string& vdrone_id) {
  ASSIGN_OR_RETURN(VirtualDroneInstance * vd, Find(vdrone_id));
  for (auto& app : vd->apps) {
    app->Destroy();
  }
  RETURN_IF_ERROR(runtime_->StopContainer(vd->container->id()));
  by_container_.erase(vd->container->id());
  vdrones_.erase(vdrone_id);
  return OkStatus();
}

StatusOr<VirtualDroneInstance*> Vdc::Find(const std::string& vdrone_id) {
  auto it = vdrones_.find(vdrone_id);
  if (it == vdrones_.end()) {
    return NotFoundError("no deployed virtual drone '" + vdrone_id + "'");
  }
  return it->second.get();
}

std::vector<VirtualDroneInstance*> Vdc::instances() {
  std::vector<VirtualDroneInstance*> out;
  out.reserve(vdrones_.size());
  for (auto& [id, vd] : vdrones_) {
    out.push_back(vd.get());
  }
  return out;
}

template <class Ar>
Status Vdc::Visit(Ar& ar) {
  ar.Section("VDC ");
  ar.Str(active_tenant_);
  ar.U32(next_app_uid_);
  ar.Match(vdrones_.size(), "VDC deployment roster size");
  for (auto& [id, vd] : vdrones_) {
    ar.Match(id, "VDC deployment");
    ar.Bool(vd->at_waypoint);
    ar.U64(vd->current_waypoint);
    ar.Bool(vd->reached_first_waypoint);
    ar.Bool(vd->finished_last_waypoint);
    ar.Bool(vd->suspended);
    ar.Bool(vd->exhausted);
    ar.Bool(vd->completed_current);
    ar.U64(vd->waypoints_served);
    ar.F64(vd->energy_used_j);
    ar.F64(vd->time_used_s);
    ar.Bool(vd->low_energy_warned);
    ar.Bool(vd->low_time_warned);
    ar.Seq(vd->files_for_user, [&](std::string& path) { ar.Str(path); });
  }
  return ar.status();
}

template Status Vdc::Visit(SaveArchive&);
template Status Vdc::Visit(LoadArchive&);

}  // namespace androne
