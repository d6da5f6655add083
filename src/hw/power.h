// Compute power model and battery. Stands in for the paper's Monsoon Power
// Monitor measurements (§6.4, Figure 13): compute power is ~1.7 W idle with
// 3 virtual drones and ~3.4 W fully stressed — insignificant next to the
// >100 W rotor draw, which is the paper's core "computation is cheap,
// flight is expensive" argument.
#ifndef SRC_HW_POWER_H_
#define SRC_HW_POWER_H_

#include <algorithm>

#include "src/util/status.h"
#include "src/util/time.h"

namespace androne {

// Compute (SBC) power model, calibrated to Figure 13:
//   idle stock           ~1.64 W
//   idle + 3 vdrones     ~1.70 W (within ~3% of stock)
//   fully stressed       ~3.4 W regardless of configuration (CPU-bound).
struct ComputePowerModel {
  double soc_idle_watts = 1.63;          // SoC + RAM + daughterboard idle.
  double per_container_watts = 0.002;    // cgroup/bridge bookkeeping.
  double per_vdrone_watts = 0.011;       // Idle Android Things instance.
  double cpu_dynamic_watts = 1.72;       // Full-load dynamic power.

  double Watts(double cpu_utilization, int containers, int vdrones) const {
    double util = std::clamp(cpu_utilization, 0.0, 1.0);
    return soc_idle_watts + per_container_watts * containers +
           per_vdrone_watts * vdrones + cpu_dynamic_watts * util;
  }
};

// LiPo battery model (Turnigy 5000 mAh 3S analog): integrates energy and
// exposes the billing-relevant joule counter (paper §2 bills virtual drones
// by energy).
class Battery {
 public:
  // 5000 mAh at 11.1 V nominal = ~199.8 kJ.
  explicit Battery(double capacity_joules = 199800.0)
      : capacity_j_(capacity_joules), remaining_j_(capacity_joules) {}

  // Integrates |watts| drawn over |dt|.
  void Drain(double watts, SimDuration dt);

  double capacity_joules() const { return capacity_j_; }
  double remaining_joules() const { return remaining_j_; }
  double consumed_joules() const { return capacity_j_ - remaining_j_; }
  double fraction_remaining() const { return remaining_j_ / capacity_j_; }
  bool depleted() const { return remaining_j_ <= 0.0; }

  // Pack voltage sags linearly from 12.6 V (full) to 10.5 V (empty) — a
  // first-order LiPo discharge model.
  double voltage() const {
    return 10.5 + 2.1 * std::max(0.0, fraction_remaining());
  }

  // Checkpoint/restore (DESIGN.md §13): the remaining charge is the
  // battery's only dynamic state (capacity is config).
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.F64(remaining_j_);
    return ar.status();
  }

 private:
  double capacity_j_;
  double remaining_j_;
};

}  // namespace androne

#endif  // SRC_HW_POWER_H_
