// Quadcopter motor/ESC bank: the actuator side of the hardware seam. The
// flight controller writes normalized throttles; the physics simulation
// reads them each step.
#ifndef SRC_HW_MOTORS_H_
#define SRC_HW_MOTORS_H_

#include <array>

#include "src/hw/device.h"

namespace androne {

inline constexpr char kMotorsDeviceName[] = "motors";
inline constexpr int kNumMotors = 4;

class MotorSet : public HardwareDevice {
 public:
  MotorSet() : HardwareDevice(kMotorsDeviceName) {}

  // Throttles in [0, 1], clamped. Motor order: front-right, back-left,
  // front-left, back-right (ArduPilot quad-X convention).
  Status SetThrottles(ContainerId caller,
                      const std::array<double, kNumMotors>& throttles);

  // Cuts all motors (failsafe path; no open check so the kernel-side
  // watchdog can always stop the props).
  void EmergencyStop();

  const std::array<double, kNumMotors>& throttles() const { return throttles_; }
  bool armed() const { return armed_; }
  Status Arm(ContainerId caller);
  Status Disarm(ContainerId caller);

  // Overwrites the actuator state directly, bypassing the open check.
  void RestoreActuatorState(const std::array<double, kNumMotors>& throttles,
                            bool armed) {
    throttles_ = throttles;
    armed_ = armed;
  }

  // Checkpoint/restore (DESIGN.md §13): the actuator state.
  template <class Ar>
  Status Visit(Ar& ar) {
    for (double& throttle : throttles_) {
      ar.F64(throttle);
    }
    ar.Bool(armed_);
    return ar.status();
  }

 private:
  std::array<double, kNumMotors> throttles_{0, 0, 0, 0};
  bool armed_ = false;
};

}  // namespace androne

#endif  // SRC_HW_MOTORS_H_
