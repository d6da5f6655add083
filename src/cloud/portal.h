// AnDrone web portal (paper §2, Figure 1): users order virtual drones by
// picking waypoints, a time window, apps from the app store, and app
// arguments. The portal validates arguments against each app's AnDrone
// manifest, merges the apps' device requirements into the definition,
// applies the geofence size policy, prices the order with energy-based
// billing, and registers the resulting virtual drone in the VDR.
#ifndef SRC_CLOUD_PORTAL_H_
#define SRC_CLOUD_PORTAL_H_

#include <string>
#include <vector>

#include "src/cloud/billing.h"
#include "src/cloud/energy_model.h"
#include "src/cloud/vdr.h"
#include "src/core/definition.h"
#include "src/core/manifest.h"

namespace androne {

struct OrderRequest {
  std::string user;
  std::vector<WaypointSpec> waypoints;
  double max_duration_s = 600;
  double max_billing_dollars = 0.25;  // Bounds the energy allotment.
  std::vector<std::string> apps;      // App-store package names.
  JsonValue app_args;                 // { package: { name: value } }.
  // Advanced (direct-access) users can request devices beyond what their
  // apps' manifests declare.
  std::vector<std::string> extra_waypoint_devices;
  std::vector<std::string> extra_continuous_devices;
  double geofence_radius_m = 0;  // 0 = provider default.
};

struct OrderConfirmation {
  std::string vdrone_id;
  VirtualDroneDefinition definition;
  BillingEstimate estimate;
};

class Portal {
 public:
  Portal(AppStore* app_store, VirtualDroneRepository* vdr,
         const EnergyModel& energy_model, const Billing& billing);

  // Validates and registers an order; the definition lands in the VDR
  // ready for the flight planner to schedule.
  StatusOr<OrderConfirmation> OrderVirtualDrone(const OrderRequest& request);

 private:
  AppStore* app_store_;
  VirtualDroneRepository* vdr_;
  EnergyModel energy_model_;
  Billing billing_;
  int next_order_ = 1;
};

}  // namespace androne

#endif  // SRC_CLOUD_PORTAL_H_
