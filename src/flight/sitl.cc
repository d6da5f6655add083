#include "src/flight/sitl.h"

namespace androne {

namespace {
// The SITL harness acts as the host (container 0) for device opens.
constexpr ContainerId kSitlOpener = 0;
}  // namespace

SitlDrone::SitlDrone(SimClock* clock, const GeoPoint& home, uint64_t seed)
    : clock_(clock), physics_(home), motors_(),
      gps_(clock, physics_.mutable_truth(), seed + 1),
      imu_(clock, physics_.mutable_truth(), seed + 2),
      baro_(clock, physics_.mutable_truth(), seed + 3),
      mag_(clock, physics_.mutable_truth(), seed + 4),
      sensors_(&gps_, &imu_, &baro_, &mag_, kSitlOpener),
      sensor_fault_injector_(&sensor_fault_plan_, clock, seed + 5),
      faulty_sensors_(&sensors_, &sensor_fault_injector_), battery_(),
      controller_(clock, &physics_, &motors_, &faulty_sensors_, &battery_,
                  FlightControllerConfig{.home = home}) {
  // The controller's battery gauge reads through the fault layer too, so a
  // scripted sag fools the failsafe without touching the real charge.
  controller_.SetBatteryGauge([this] {
    return sensor_fault_injector_.ApplyBatteryFraction(
        battery_.fraction_remaining());
  });
  (void)motors_.Open(kSitlOpener);
  (void)gps_.Open(kSitlOpener);
  (void)imu_.Open(kSitlOpener);
  (void)baro_.Open(kSitlOpener);
  (void)mag_.Open(kSitlOpener);
  controller_.SetSender([this](const MavlinkFrame& frame) {
    auto message = UnpackMessage(frame);
    if (message.ok() && std::holds_alternative<StatusText>(*message)) {
      status_texts_.push_back(std::get<StatusText>(*message).text);
    }
  });
  controller_.Start();
}

void SitlDrone::InjectMessage(const MavMessage& message) {
  controller_.HandleFrame(PackMessage(message));
}

void SitlDrone::SetModeCmd(CopterMode mode) {
  SetMode sm;
  sm.custom_mode = static_cast<uint32_t>(mode);
  InjectMessage(MavMessage{sm});
}

void SitlDrone::ArmCmd() {
  CommandLong cmd;
  cmd.command = static_cast<uint16_t>(MavCmd::kComponentArmDisarm);
  cmd.param1 = 1.0f;
  InjectMessage(MavMessage{cmd});
}

void SitlDrone::DisarmCmd(bool force) {
  CommandLong cmd;
  cmd.command = static_cast<uint16_t>(MavCmd::kComponentArmDisarm);
  cmd.param1 = 0.0f;
  cmd.param2 = force ? 21196.0f : 0.0f;
  InjectMessage(MavMessage{cmd});
}

void SitlDrone::TakeoffCmd(double altitude_m) {
  CommandLong cmd;
  cmd.command = static_cast<uint16_t>(MavCmd::kNavTakeoff);
  cmd.param7 = static_cast<float>(altitude_m);
  InjectMessage(MavMessage{cmd});
}

void SitlDrone::GotoCmd(const GeoPoint& target) {
  InjectMessage(MavMessage{GotoTarget(target)});
}

void SitlDrone::VelocityCmd(double vn, double ve, double vd) {
  SetPositionTargetGlobalInt sp;
  sp.type_mask = 0x0FC7;  // Use velocity only.
  sp.vx = static_cast<float>(vn);
  sp.vy = static_cast<float>(ve);
  sp.vz = static_cast<float>(vd);
  InjectMessage(MavMessage{sp});
}

void SitlDrone::LandCmd() {
  CommandLong cmd;
  cmd.command = static_cast<uint16_t>(MavCmd::kNavLand);
  InjectMessage(MavMessage{cmd});
}

void SitlDrone::RtlCmd() {
  CommandLong cmd;
  cmd.command = static_cast<uint16_t>(MavCmd::kNavReturnToLaunch);
  InjectMessage(MavMessage{cmd});
}

bool SitlDrone::RunUntil(const std::function<bool()>& predicate,
                         SimDuration timeout) {
  SimTime deadline = clock_->now() + timeout;
  while (clock_->now() < deadline) {
    if (predicate()) {
      return true;
    }
    clock_->RunUntil(clock_->now() + Millis(100));
  }
  return predicate();
}

double SitlDrone::DistanceTo(const GeoPoint& target) const {
  return Distance3dMeters(physics_.truth().position, target);
}

}  // namespace androne
