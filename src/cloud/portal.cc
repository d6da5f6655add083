#include "src/cloud/portal.h"

#include <algorithm>

#include "src/services/permissions.h"

namespace androne {

namespace {

// The provider's geofence and tenancy-length policy (paper §2).
constexpr double kDefaultGeofenceRadiusM = 100.0;
constexpr double kMaxGeofenceRadiusM = 500.0;
constexpr double kMaxDurationS = 1800.0;

void AddUnique(std::vector<std::string>& list, const std::string& value) {
  if (std::find(list.begin(), list.end(), value) == list.end()) {
    list.push_back(value);
  }
}

}  // namespace

Portal::Portal(AppStore* app_store, VirtualDroneRepository* vdr,
               const EnergyModel& energy_model, const Billing& billing)
    : app_store_(app_store), vdr_(vdr), energy_model_(energy_model),
      billing_(billing) {}

StatusOr<OrderConfirmation> Portal::OrderVirtualDrone(
    const OrderRequest& request) {
  if (request.waypoints.empty()) {
    return InvalidArgumentError("an order needs at least one waypoint");
  }
  if (request.max_duration_s <= 0 || request.max_duration_s > kMaxDurationS) {
    return InvalidArgumentError("max-duration outside the provider's limits");
  }

  VirtualDroneDefinition def;
  def.owner = request.user;
  def.waypoints = request.waypoints;
  // Geofence size: user-requested up to the provider maximum, with a
  // default (paper §2).
  double radius = request.geofence_radius_m > 0
                      ? request.geofence_radius_m
                      : kDefaultGeofenceRadiusM;
  if (radius > kMaxGeofenceRadiusM) {
    return InvalidArgumentError("requested geofence exceeds provider maximum");
  }
  for (WaypointSpec& wp : def.waypoints) {
    if (wp.max_radius_m <= 0) {
      wp.max_radius_m = radius;
    }
    wp.max_radius_m = std::min(wp.max_radius_m, kMaxGeofenceRadiusM);
  }
  def.max_duration_s = request.max_duration_s;
  def.energy_allotted_j =
      billing_.MaxEnergyForCharge(request.max_billing_dollars);
  if (def.energy_allotted_j <= 0) {
    return InvalidArgumentError("maximum billing charge buys no energy");
  }

  // Merge device requirements from each app's manifest; validate arguments.
  JsonObject all_args;
  if (request.app_args.is_object()) {
    all_args = request.app_args.AsObject();
  }
  for (const std::string& package : request.apps) {
    ASSIGN_OR_RETURN(AppPackage app, app_store_->Fetch(package));
    ASSIGN_OR_RETURN(AndroneManifest manifest,
                     AndroneManifest::Parse(app.manifest_xml));
    JsonValue args_for_app(JsonObject{});
    auto it = all_args.find(package);
    if (it != all_args.end()) {
      args_for_app = it->second;
    }
    RETURN_IF_ERROR(manifest.ValidateArgs(args_for_app));
    for (const ManifestPermission& perm : manifest.permissions) {
      if (perm.scope == PermissionScope::kContinuous) {
        AddUnique(def.continuous_devices, perm.device);
      } else {
        AddUnique(def.waypoint_devices, perm.device);
      }
    }
    def.apps.push_back(package);
  }
  for (const std::string& device : request.extra_waypoint_devices) {
    AddUnique(def.waypoint_devices, device);
  }
  for (const std::string& device : request.extra_continuous_devices) {
    AddUnique(def.continuous_devices, device);
  }
  def.app_args = JsonValue(all_args);

  def.id = "vd-" + std::to_string(next_order_++);
  RETURN_IF_ERROR(def.Validate());

  OrderConfirmation confirmation;
  confirmation.vdrone_id = def.id;
  confirmation.definition = def;
  confirmation.estimate = billing_.Estimate(def.energy_allotted_j,
                                            energy_model_.HoverPowerW());

  StoredVirtualDrone stored;
  stored.definition = std::move(def);
  vdr_->Save(confirmation.vdrone_id, std::move(stored));
  return confirmation;
}

}  // namespace androne
