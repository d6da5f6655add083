// Camera gimbal model. The paper lists camera gimbals among the devices a
// virtual drone can be conditionally granted (§1); control arrives via
// MAVLink MAV_CMD_DO_MOUNT_CONTROL through the flight controller, and the
// pointing state is stamped into captured frames by callers that care.
#ifndef SRC_HW_GIMBAL_H_
#define SRC_HW_GIMBAL_H_

#include <algorithm>

#include "src/hw/device.h"

namespace androne {

inline constexpr char kGimbalDeviceName[] = "gimbal";

class Gimbal : public HardwareDevice {
 public:
  Gimbal() : HardwareDevice(kGimbalDeviceName) {}

  // Commands the mount; angles clamp to the mechanical envelope
  // (pitch -90..+30 deg, yaw free, roll +-45 deg).
  Status SetOrientation(ContainerId caller, double pitch_deg, double roll_deg,
                        double yaw_deg);

  double pitch_deg() const { return pitch_deg_; }
  double roll_deg() const { return roll_deg_; }
  double yaw_deg() const { return yaw_deg_; }

  // Checkpoint/restore (DESIGN.md §13): the pointing state.
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.F64(pitch_deg_);
    ar.F64(roll_deg_);
    ar.F64(yaw_deg_);
    return ar.status();
  }

 private:
  double pitch_deg_ = 0;
  double roll_deg_ = 0;
  double yaw_deg_ = 0;
};

}  // namespace androne

#endif  // SRC_HW_GIMBAL_H_
