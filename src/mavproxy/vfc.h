// Virtual Flight Controller (paper §4.3): each virtual drone connects to
// its own VFC, which (a) filters commands through a whitelist and the VDC's
// flight-control permission, and (b) presents a *virtualized view* of the
// drone: idle on the ground at the assigned waypoint before the tenancy,
// an automatic takeoff as the physical drone approaches, live telemetry
// while active, and a landing animation after control is withdrawn. A
// virtual drone with continuous device access instead sees the real
// position throughout, but its commands are still declined between its
// waypoints.
#ifndef SRC_MAVPROXY_VFC_H_
#define SRC_MAVPROXY_VFC_H_

#include <functional>
#include <optional>
#include <string>

#include "src/mavlink/messages.h"
#include "src/mavproxy/whitelist.h"
#include "src/util/status.h"
#include "src/util/geo.h"
#include "src/util/sim_clock.h"

namespace androne {

enum class VfcState {
  kIdleOnGround,     // Presented as parked at the waypoint.
  kTakingOffToMeet,  // Virtual climb toward the approaching real drone.
  kActive,           // Live control of the physical drone.
  kLanding,          // Virtual descent after the tenancy ends.
};

const char* VfcStateName(VfcState state);

class VirtualFlightController {
 public:
  using FrameSink = std::function<void(const MavlinkFrame&)>;
  // VDC hook: is flight control currently permitted for this tenant?
  using ControlQuery = std::function<bool()>;

  VirtualFlightController(SimClock* clock, int tenant_id,
                          CommandWhitelist whitelist,
                          bool continuous_position);

  // --- Wiring ---
  void SetClientSink(FrameSink sink) { to_client_ = std::move(sink); }
  void SetMasterSink(FrameSink sink) { to_master_ = std::move(sink); }
  void SetControlQuery(ControlQuery query) { control_query_ = std::move(query); }

  // --- VDC / flight-plan driven state ---
  void SetAssignedWaypoint(const GeoPoint& waypoint);
  // Grants control (the physical drone is at the waypoint).
  void GrantControl();
  // Withdraws control (tenancy over); the view begins its landing animation.
  void RevokeControl();
  // Temporarily refuse commands during geofence recovery (paper §4.3).
  void SuspendForFenceRecovery();
  void ResumeAfterFenceRecovery();
  // Temporarily refuse commands while the onboard safety supervisor has
  // overridden the complex controller: the physical drone is flying the
  // recovery ladder and no tenant input can reach the motors.
  void SuspendForSafetyOverride();
  void ResumeAfterSafetyOverride();

  // --- Data path ---
  // Client -> flight controller. Declined commands get a denied ack (for
  // COMMAND_LONG) or are dropped.
  void HandleClientFrame(const MavlinkFrame& frame);
  // Flight controller -> client: telemetry, possibly rewritten.
  void HandleMasterFrame(const MavlinkFrame& frame);

  VfcState state() const { return state_; }
  int tenant_id() const { return tenant_id_; }
  bool commands_enabled() const {
    return state_ == VfcState::kActive && !fence_suspended_ &&
           !safety_suspended_;
  }
  uint64_t commands_forwarded() const { return commands_forwarded_; }
  uint64_t commands_declined() const { return commands_declined_; }

  // Checkpoint/restore: the virtualized-view machine and counters (wiring,
  // whitelist, and tenant id are config recreated by the restoring world).
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("VFC ");
    ar.Enum(state_, VfcState::kLanding);
    ar.Bool(fence_suspended_);
    ar.Bool(safety_suspended_);
    ar.Optional(waypoint_, [&](GeoPoint& p) { VisitValue(ar, p); });
    ar.F64(virtual_altitude_m_);
    VisitValue(ar, virtual_position_);
    ar.I64(last_view_update_);
    ar.F64(last_real_altitude_m_);
    ar.U8(tx_seq_);
    ar.U64(commands_forwarded_);
    ar.U64(commands_declined_);
    return ar.status();
  }

 private:
  void SendToClient(const MavMessage& message);
  void Decline(const MavMessage& message);
  // Advances the takeoff/landing animation given the latest real position.
  void UpdateVirtualView(const GlobalPositionInt& real);

  SimClock* clock_;
  int tenant_id_;
  CommandWhitelist whitelist_;
  bool continuous_position_;

  FrameSink to_client_;
  FrameSink to_master_;
  ControlQuery control_query_;

  VfcState state_ = VfcState::kIdleOnGround;
  bool fence_suspended_ = false;
  bool safety_suspended_ = false;
  std::optional<GeoPoint> waypoint_;
  // The synthetic view's current altitude during takeoff/landing animation.
  double virtual_altitude_m_ = 0;
  GeoPoint virtual_position_;
  SimTime last_view_update_ = 0;
  double last_real_altitude_m_ = 0;
  uint8_t tx_seq_ = 0;
  uint64_t commands_forwarded_ = 0;
  uint64_t commands_declined_ = 0;

  static constexpr double kApproachThresholdM = 60.0;
  static constexpr double kVirtualClimbMs = 2.5;
};

}  // namespace androne

#endif  // SRC_MAVPROXY_VFC_H_
