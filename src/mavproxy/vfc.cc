#include "src/mavproxy/vfc.h"

#include <algorithm>
#include <cmath>

namespace androne {

const char* VfcStateName(VfcState state) {
  switch (state) {
    case VfcState::kIdleOnGround:
      return "idle-on-ground";
    case VfcState::kTakingOffToMeet:
      return "taking-off-to-meet";
    case VfcState::kActive:
      return "active";
    case VfcState::kLanding:
      return "landing";
  }
  return "unknown";
}

VirtualFlightController::VirtualFlightController(SimClock* clock,
                                                 int tenant_id,
                                                 CommandWhitelist whitelist,
                                                 bool continuous_position)
    : clock_(clock), tenant_id_(tenant_id), whitelist_(std::move(whitelist)),
      continuous_position_(continuous_position) {}

void VirtualFlightController::SetAssignedWaypoint(const GeoPoint& waypoint) {
  waypoint_ = waypoint;
  virtual_position_ = waypoint;
  virtual_position_.altitude_m = 0;
  virtual_altitude_m_ = 0;
}

void VirtualFlightController::GrantControl() {
  state_ = VfcState::kActive;
  fence_suspended_ = false;
}

void VirtualFlightController::RevokeControl() {
  if (state_ == VfcState::kActive || state_ == VfcState::kTakingOffToMeet) {
    state_ = VfcState::kLanding;
    virtual_altitude_m_ = last_real_altitude_m_;
  }
}

void VirtualFlightController::SuspendForFenceRecovery() {
  fence_suspended_ = true;
}

void VirtualFlightController::ResumeAfterFenceRecovery() {
  fence_suspended_ = false;
}

void VirtualFlightController::SuspendForSafetyOverride() {
  safety_suspended_ = true;
}

void VirtualFlightController::ResumeAfterSafetyOverride() {
  safety_suspended_ = false;
}

void VirtualFlightController::SendToClient(const MavMessage& message) {
  if (!to_client_) {
    return;
  }
  MavlinkFrame frame = PackMessage(message);
  frame.seq = tx_seq_++;
  to_client_(frame);
}

void VirtualFlightController::Decline(const MavMessage& message) {
  ++commands_declined_;
  if (const auto* cmd = std::get_if<CommandLong>(&message)) {
    CommandAck ack;
    ack.command = cmd->command;
    ack.result = static_cast<uint8_t>(MavResult::kDenied);
    SendToClient(MavMessage{ack});
  }
}

void VirtualFlightController::HandleClientFrame(const MavlinkFrame& frame) {
  auto message = UnpackMessage(frame);
  if (!message.ok()) {
    return;
  }
  // Inbound GCS heartbeats are swallowed.
  if (std::holds_alternative<Heartbeat>(*message)) {
    return;
  }
  // Until the waypoint is reached (and whenever suspended), every command
  // is declined (paper: "declines any commands sent to it").
  if (!commands_enabled()) {
    Decline(*message);
    return;
  }
  // The VDC has the last word on flight-control permission.
  if (control_query_ && !control_query_()) {
    Decline(*message);
    return;
  }
  if (!whitelist_.Allows(*message)) {
    Decline(*message);
    return;
  }
  ++commands_forwarded_;
  if (to_master_) {
    to_master_(frame);
  }
}

void VirtualFlightController::UpdateVirtualView(const GlobalPositionInt& real) {
  GeoPoint real_pos{real.lat / 1e7, real.lon / 1e7,
                    real.relative_alt / 1000.0};
  last_real_altitude_m_ = real_pos.altitude_m;
  double dt = ToSecondsF(clock_->now() - last_view_update_);
  last_view_update_ = clock_->now();
  dt = std::clamp(dt, 0.0, 1.0);

  switch (state_) {
    case VfcState::kIdleOnGround:
      // Start the takeoff animation only once the real drone is actually
      // flying toward the waypoint (not merely parked nearby).
      if (waypoint_.has_value() && real_pos.altitude_m > 2.0 &&
          HaversineMeters(real_pos, *waypoint_) < kApproachThresholdM) {
        state_ = VfcState::kTakingOffToMeet;
      }
      break;
    case VfcState::kTakingOffToMeet: {
      // Climb the synthetic drone to meet the real altitude.
      virtual_altitude_m_ =
          std::clamp(virtual_altitude_m_ + kVirtualClimbMs * dt, 0.0,
                     std::max(0.0, real_pos.altitude_m));
      if (waypoint_.has_value()) {
        virtual_position_ = *waypoint_;
        virtual_position_.altitude_m = virtual_altitude_m_;
      }
      // The view "meets" the drone; actual control still waits for the VDC
      // to call GrantControl().
      break;
    }
    case VfcState::kActive:
      virtual_position_ = real_pos;
      virtual_altitude_m_ = real_pos.altitude_m;
      break;
    case VfcState::kLanding:
      virtual_altitude_m_ =
          std::max(0.0, virtual_altitude_m_ - kVirtualClimbMs * dt);
      virtual_position_.altitude_m = virtual_altitude_m_;
      break;
  }
}

void VirtualFlightController::HandleMasterFrame(const MavlinkFrame& frame) {
  auto message = UnpackMessage(frame);
  if (!message.ok()) {
    return;
  }

  if (const auto* gpi = std::get_if<GlobalPositionInt>(&*message)) {
    UpdateVirtualView(*gpi);
    // Continuous-device tenants see the real position between waypoints to
    // keep device readings consistent (paper §4.3); others see the
    // virtualized view.
    if (state_ == VfcState::kActive || continuous_position_) {
      SendToClient(*message);
      return;
    }
    GlobalPositionInt view = *gpi;
    view.lat = static_cast<int32_t>(virtual_position_.latitude_deg * 1e7);
    view.lon = static_cast<int32_t>(virtual_position_.longitude_deg * 1e7);
    view.relative_alt =
        static_cast<int32_t>(virtual_position_.altitude_m * 1000);
    view.alt = view.relative_alt;
    view.vx = view.vy = 0;
    view.vz = state_ == VfcState::kLanding
                  ? static_cast<int16_t>(kVirtualClimbMs * 100)
                  : (state_ == VfcState::kTakingOffToMeet
                         ? static_cast<int16_t>(-kVirtualClimbMs * 100)
                         : 0);
    SendToClient(MavMessage{view});
    return;
  }

  if (const auto* hb = std::get_if<Heartbeat>(&*message)) {
    if (state_ == VfcState::kActive) {
      SendToClient(*message);
      return;
    }
    // Virtualized heartbeat: the tenant's drone looks like its own idle or
    // maneuvering aircraft, not the shared multi-tenant one.
    Heartbeat view = *hb;
    view.base_mode = kMavModeFlagCustomModeEnabled;
    view.custom_mode = static_cast<uint32_t>(
        state_ == VfcState::kIdleOnGround ? CopterMode::kStabilize
                                          : CopterMode::kGuided);
    view.system_status = static_cast<uint8_t>(
        state_ == VfcState::kIdleOnGround ? MavState::kStandby
                                          : MavState::kActive);
    SendToClient(MavMessage{view});
    return;
  }

  // Everything else (acks, statustext, attitude, sys_status) passes through
  // only while active — an inactive tenant learns nothing about another
  // tenant's flight (privacy, paper §2).
  if (state_ == VfcState::kActive) {
    SendToClient(*message);
  }
}

}  // namespace androne
