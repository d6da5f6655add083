#include "src/cloud/flight_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "src/util/detmath.h"

namespace androne {

std::string FlightPlan::ToString() const {
  std::string out = "FlightPlan (makespan " +
                    std::to_string(static_cast<int>(makespan_s)) + " s, " +
                    (feasible ? "feasible" : "INFEASIBLE") + ")\n";
  for (const PlannedRoute& route : routes) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  drone %d: %zu stops, %.0f kJ, %.0f s\n", route.drone,
                  route.stops.size(), route.total_energy_j / 1000.0,
                  route.total_time_s);
    out += line;
  }
  return out;
}

StatusOr<double> FlightPlan::EtaSecondsFor(const std::vector<PlannerJob>& jobs,
                                           const std::string& vdrone_ref,
                                           int waypoint_index) const {
  for (const PlannedRoute& route : routes) {
    for (const PlannedStop& stop : route.stops) {
      const PlannerJob& job = jobs[stop.job_index];
      if (job.vdrone_ref == vdrone_ref &&
          job.waypoint_index == waypoint_index) {
        return stop.arrival_time_s;
      }
    }
  }
  return NotFoundError("no stop serves " + vdrone_ref + " waypoint " +
                       std::to_string(waypoint_index));
}

double FlightPlanner::RouteEnergyJ(const std::vector<PlannerJob>& jobs,
                                   const std::vector<size_t>& order) const {
  if (order.empty()) {
    return 0;
  }
  double energy = 0;
  GeoPoint at = config_.depot;
  for (size_t idx : order) {
    const PlannerJob& job = jobs[idx];
    energy += model_.LegEnergyJ(at, job.waypoint, config_.cruise_speed_ms);
    energy += job.service_energy_j;
    at = job.waypoint;
  }
  energy += model_.LegEnergyJ(at, config_.depot, config_.cruise_speed_ms);
  return energy;
}

double FlightPlanner::RouteTimeS(const std::vector<PlannerJob>& jobs,
                                 const std::vector<size_t>& order) const {
  if (order.empty()) {
    return 0;
  }
  double time = 0;
  GeoPoint at = config_.depot;
  for (size_t idx : order) {
    const PlannerJob& job = jobs[idx];
    time += Distance3dMeters(at, job.waypoint) / config_.cruise_speed_ms;
    time += job.service_time_s;
    at = job.waypoint;
  }
  time += Distance3dMeters(at, config_.depot) / config_.cruise_speed_ms;
  return time;
}

int FlightPlanner::CountConstraintViolations(
    const std::vector<PlannerJob>& jobs,
    const std::vector<std::vector<size_t>>& routes) {
  int violations = 0;
  // Ordered tenants must keep all ordered jobs on one route, in index order.
  std::map<int, size_t> ordered_route;  // vdrone -> first route seen.
  for (size_t r = 0; r < routes.size(); ++r) {
    std::map<int, int> last_index;  // vdrone -> last ordered index seen.
    for (size_t idx : routes[r]) {
      const PlannerJob& job = jobs[idx];
      if (!job.ordered) {
        continue;
      }
      auto [it, inserted] = ordered_route.emplace(job.vdrone_id, r);
      if (!inserted && it->second != r) {
        ++violations;  // Split across routes.
      }
      auto last = last_index.find(job.vdrone_id);
      if (last != last_index.end() && job.waypoint_index < last->second) {
        ++violations;  // Out of order.
      }
      last_index[job.vdrone_id] = job.waypoint_index;
    }
  }
  // Grouped tenants must be contiguous within their route.
  for (const auto& route : routes) {
    std::map<int, std::pair<size_t, size_t>> span;  // vdrone -> [first,last].
    for (size_t pos = 0; pos < route.size(); ++pos) {
      const PlannerJob& job = jobs[route[pos]];
      if (!job.grouped) {
        continue;
      }
      auto [it, inserted] = span.emplace(job.vdrone_id,
                                         std::make_pair(pos, pos));
      if (!inserted) {
        it->second.second = pos;
      }
    }
    for (const auto& [vdrone, range] : span) {
      for (size_t pos = range.first; pos <= range.second; ++pos) {
        if (jobs[route[pos]].vdrone_id != vdrone) {
          ++violations;  // An interloper inside the group.
        }
      }
    }
  }
  return violations;
}

FlightPlan FlightPlanner::Materialize(
    const std::vector<PlannerJob>& jobs,
    const std::vector<std::vector<size_t>>& routes) const {
  FlightPlan plan;
  plan.constraint_violations = CountConstraintViolations(jobs, routes);
  double usable = config_.battery_capacity_j *
                  (1.0 - config_.energy_reserve_fraction);
  int drone = 0;
  for (const auto& order : routes) {
    PlannedRoute route;
    route.drone = drone++;
    double energy = 0;
    double time = 0;
    GeoPoint at = config_.depot;
    for (size_t idx : order) {
      const PlannerJob& job = jobs[idx];
      energy += model_.LegEnergyJ(at, job.waypoint, config_.cruise_speed_ms);
      time += Distance3dMeters(at, job.waypoint) / config_.cruise_speed_ms;
      route.stops.push_back(PlannedStop{idx, energy, time});
      energy += job.service_energy_j;
      time += job.service_time_s;
      at = job.waypoint;
    }
    energy += model_.LegEnergyJ(at, config_.depot, config_.cruise_speed_ms);
    time += Distance3dMeters(at, config_.depot) / config_.cruise_speed_ms;
    route.total_energy_j = energy;
    route.total_time_s = time;
    route.feasible = energy <= usable;
    plan.feasible = plan.feasible && route.feasible;
    plan.makespan_s = std::max(plan.makespan_s, time);
    plan.routes.push_back(std::move(route));
  }
  return plan;
}

double FlightPlanner::Cost(const FlightPlan& plan) const {
  double usable = config_.battery_capacity_j *
                  (1.0 - config_.energy_reserve_fraction);
  double cost = plan.makespan_s;
  // Ordering/grouping breaches are hard constraints: dominate travel time.
  cost += 5000.0 * plan.constraint_violations;
  // Soft total-time term keeps non-bottleneck routes short too.
  for (const PlannedRoute& route : plan.routes) {
    cost += 0.05 * route.total_time_s;
    if (route.total_energy_j > usable) {
      // Heavy penalty per joule over budget.
      cost += 10.0 + (route.total_energy_j - usable) * 0.01;
    }
  }
  return cost;
}

StatusOr<FlightPlan> FlightPlanner::Plan(
    const std::vector<PlannerJob>& jobs) const {
  if (config_.fleet_size <= 0) {
    return InvalidArgumentError("fleet size must be positive");
  }
  double usable = config_.battery_capacity_j *
                  (1.0 - config_.energy_reserve_fraction);
  // Single-job feasibility: depot -> wp -> service -> depot must fit.
  for (size_t i = 0; i < jobs.size(); ++i) {
    double solo = RouteEnergyJ(jobs, {i});
    if (solo > usable) {
      return FailedPreconditionError(
          "waypoint for virtual drone " + std::to_string(jobs[i].vdrone_id) +
          " cannot be served within one battery (" + std::to_string(solo) +
          " J needed, " + std::to_string(usable) + " J usable)");
    }
  }

  size_t n = jobs.size();
  std::vector<std::vector<size_t>> routes(
      static_cast<size_t>(config_.fleet_size));
  if (n == 0) {
    return Materialize(jobs, routes);
  }

  // Greedy seed: keep each virtual drone's jobs together (in waypoint
  // order) and deal the blocks round-robin over the fleet — a feasible
  // start for the ordering/grouping extension and a reasonable one for the
  // unconstrained case.
  Rng rng(config_.seed);
  std::vector<size_t> by_tenant(n);
  for (size_t i = 0; i < n; ++i) {
    by_tenant[i] = i;
  }
  std::stable_sort(by_tenant.begin(), by_tenant.end(),
                   [&jobs](size_t a, size_t b) {
                     if (jobs[a].vdrone_id != jobs[b].vdrone_id) {
                       return jobs[a].vdrone_id < jobs[b].vdrone_id;
                     }
                     return jobs[a].waypoint_index < jobs[b].waypoint_index;
                   });
  size_t route_cursor = 0;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n &&
           jobs[by_tenant[j]].vdrone_id == jobs[by_tenant[i]].vdrone_id) {
      routes[route_cursor].push_back(by_tenant[j]);
      ++j;
    }
    i = j;
    route_cursor = (route_cursor + 1) % routes.size();
  }

  FlightPlan best = Materialize(jobs, routes);
  double best_cost = Cost(best);
  auto current = routes;
  double current_cost = best_cost;

  double temperature = std::max(60.0, best.makespan_s * 0.3);
  const double cooling =
      detmath::Pow(0.001 / temperature,
                   1.0 / std::max(1, config_.annealing_iterations));

  for (int iter = 0; iter < config_.annealing_iterations; ++iter) {
    auto candidate = current;
    // Moves: relocate a job, swap two jobs, or reverse a segment.
    int move = static_cast<int>(rng.NextU64Below(3));
    size_t r1 = rng.NextU64Below(candidate.size());
    size_t r2 = rng.NextU64Below(candidate.size());
    if (move == 0) {
      // Relocate a random job from r1 to a random slot in r2.
      if (candidate[r1].empty()) {
        continue;
      }
      size_t from = rng.NextU64Below(candidate[r1].size());
      size_t job = candidate[r1][from];
      candidate[r1].erase(candidate[r1].begin() + static_cast<long>(from));
      size_t to = rng.NextU64Below(candidate[r2].size() + 1);
      candidate[r2].insert(candidate[r2].begin() + static_cast<long>(to), job);
    } else if (move == 1) {
      if (candidate[r1].empty() || candidate[r2].empty()) {
        continue;
      }
      size_t a = rng.NextU64Below(candidate[r1].size());
      size_t b = rng.NextU64Below(candidate[r2].size());
      std::swap(candidate[r1][a], candidate[r2][b]);
    } else {
      if (candidate[r1].size() < 2) {
        continue;
      }
      size_t a = rng.NextU64Below(candidate[r1].size());
      size_t b = rng.NextU64Below(candidate[r1].size());
      if (a > b) {
        std::swap(a, b);
      }
      std::reverse(candidate[r1].begin() + static_cast<long>(a),
                   candidate[r1].begin() + static_cast<long>(b) + 1);
    }

    FlightPlan plan = Materialize(jobs, candidate);
    double cost = Cost(plan);
    double delta = cost - current_cost;
    if (delta < 0 || rng.NextDouble() < detmath::Exp(-delta / temperature)) {
      current = std::move(candidate);
      current_cost = cost;
      if (cost < best_cost) {
        best = std::move(plan);
        best_cost = cost;
      }
    }
    temperature *= cooling;
  }

  if (!best.feasible) {
    return ResourceExhaustedError(
        "no feasible plan within the fleet's battery capacity; " +
        best.ToString());
  }
  if (best.constraint_violations > 0) {
    return FailedPreconditionError(
        "no plan satisfying the ordering/grouping constraints was found (" +
        std::to_string(best.constraint_violations) + " violations remain)");
  }
  return best;
}

}  // namespace androne
