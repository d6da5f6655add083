// Flight planner (paper §4): assigns virtual drone waypoints to physical
// drone flights using the Dorling-et-al drone-delivery VRP formulation —
// waypoints play the role of delivery locations, the energy cost at each is
// adjusted by the energy allotted to the virtual drone there, and the fleet
// size is constrained. Solved with simulated annealing.
//
// Faithful limitation (paper §4): by default waypoints are treated
// independently — a user cannot prescribe visit order, and one tenant's
// waypoints may be interleaved with another's on the same route.
//
// Extension (the paper's stated future work): per-job ordering and grouping
// constraints. A job with `ordered` must be visited after lower-indexed
// ordered jobs of the same virtual drone (and on the same route); `grouped`
// additionally forbids other tenants' stops between that virtual drone's
// stops. The annealer treats violations as hard penalties, and Plan()
// rejects any result that still violates a constraint.
#ifndef SRC_CLOUD_FLIGHT_PLANNER_H_
#define SRC_CLOUD_FLIGHT_PLANNER_H_

#include <string>
#include <vector>

#include "src/cloud/energy_model.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace androne {

// One waypoint visit requested by a virtual drone.
struct PlannerJob {
  int vdrone_id = 0;            // Numeric id used in planner diagnostics.
  std::string vdrone_ref;       // Definition id ("vd-3") for the executor.
  int waypoint_index = 0;       // Index within that vdrone's definition.
  GeoPoint waypoint;
  double service_energy_j = 0;  // Energy allotted to the tenant here.
  double service_time_s = 0;    // Expected dwell time.
  // Extension flags (see header comment). Both default off, matching the
  // paper's published algorithm.
  bool ordered = false;  // Visit this tenant's waypoints in index order.
  bool grouped = false;  // No other tenant's stop between this tenant's.
};

// Battery fraction every route holds back for winds/contingency.
inline constexpr double kEnergyReserveFraction = 0.15;

struct PlannerConfig {
  GeoPoint depot;               // Launch/return base.
  int fleet_size = 1;
  double battery_capacity_j = 199800.0;
  uint64_t seed = 1;
  int annealing_iterations = 20000;
};

struct PlannedStop {
  size_t job_index;             // Into the submitted job list.
  double arrival_energy_j = 0;  // Cumulative energy at arrival.
  double arrival_time_s = 0;
};

struct PlannedRoute {
  int drone = 0;
  std::vector<PlannedStop> stops;
  double total_energy_j = 0;    // Travel + service + return leg.
  double total_time_s = 0;
  bool feasible = true;         // Within battery capacity (minus reserve).
};

struct FlightPlan {
  std::vector<PlannedRoute> routes;
  double makespan_s = 0;        // Longest route duration.
  bool feasible = true;
  int constraint_violations = 0;  // Ordering/grouping breaches (0 in plans
                                  // returned by Plan()).
  std::string ToString() const;

  // Estimated arrival time (seconds after takeoff) at the stop serving
  // |vdrone_ref|'s waypoint |waypoint_index| — the "estimated operating
  // window" the portal shows users ahead of the flight (paper §2).
  StatusOr<double> EtaSecondsFor(const std::vector<PlannerJob>& jobs,
                                 const std::string& vdrone_ref,
                                 int waypoint_index) const;
};

class FlightPlanner {
 public:
  FlightPlanner(const EnergyModel& model, const PlannerConfig& config)
      : model_(model), config_(config) {}

  // Plans routes over |jobs|. Fails if any single job cannot fit a battery.
  StatusOr<FlightPlan> Plan(const std::vector<PlannerJob>& jobs) const;

  // Energy cost of a route visiting |order| (indices into |jobs|),
  // including depot->...->depot travel and per-stop service energy.
  double RouteEnergyJ(const std::vector<PlannerJob>& jobs,
                      const std::vector<size_t>& order) const;
  double RouteTimeS(const std::vector<PlannerJob>& jobs,
                    const std::vector<size_t>& order) const;

  // Counts ordering/grouping violations across a set of per-drone routes.
  static int CountConstraintViolations(
      const std::vector<PlannerJob>& jobs,
      const std::vector<std::vector<size_t>>& routes);

 private:
  // Builds a FlightPlan from per-drone job orderings, computing energies
  // and feasibility.
  FlightPlan Materialize(const std::vector<PlannerJob>& jobs,
                         const std::vector<std::vector<size_t>>& routes) const;

  double Cost(const FlightPlan& plan) const;

  EnergyModel model_;
  PlannerConfig config_;
};

}  // namespace androne

#endif  // SRC_CLOUD_FLIGHT_PLANNER_H_
