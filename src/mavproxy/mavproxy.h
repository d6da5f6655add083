// MAVProxy analog (paper §4.3): the indirection layer between the flight
// controller and its many clients. The cloud flight planner gets a standard
// unrestricted connection; every virtual drone gets a Virtual Flight
// Controller. One master link fans out to all endpoints.
#ifndef SRC_MAVPROXY_MAVPROXY_H_
#define SRC_MAVPROXY_MAVPROXY_H_

#include <memory>
#include <vector>

#include "src/mavproxy/vfc.h"

namespace androne {

class TraceRecorder;

// Telemetry batching for the planner wire downlink (paper §6.5 ground
// path): instead of one VPN datagram per telemetry frame, encoded frames
// accumulate in a batch buffer flushed when it reaches |flush_bytes| or
// when |flush_after| elapses since the first frame entered the batch.
// MAVLink v1 frames are self-framing, so a receiver parses a concatenated
// batch exactly as it parses single frames — batching is invisible above
// the datagram layer.
struct TelemetryBatchConfig {
  size_t flush_bytes = 512;              // Size watermark.
  SimDuration flush_after = Millis(25);  // Deadline from first queued frame.
};

class MavProxy {
 public:
  using FrameSink = std::function<void(const MavlinkFrame&)>;

  explicit MavProxy(SimClock* clock) : clock_(clock) {}
  ~MavProxy();

  // --- Master (flight controller) side ---
  void SetMasterSink(FrameSink sink) { to_master_ = std::move(sink); }
  // Telemetry from the flight controller; fans out to planner + every VFC.
  void HandleMasterFrame(const MavlinkFrame& frame);

  // --- Planner endpoint: unrestricted native access ---
  void SetPlannerSink(FrameSink sink) { to_planner_ = std::move(sink); }
  // Wire-level planner downlink: telemetry fanned out to the planner is
  // MAVLink-encoded into one reused scratch buffer and emitted as bytes
  // (ready for a NetworkChannel/VpnTunnel), so the per-frame downlink costs
  // zero allocations. May be combined with SetPlannerSink.
  using WireSink = std::function<void(const std::vector<uint8_t>&)>;
  void SetPlannerWireSink(WireSink sink) {
    to_planner_wire_ = std::move(sink);
  }
  void HandlePlannerFrame(const MavlinkFrame& frame);

  // --- Virtual flight controllers ---
  VirtualFlightController* CreateVfc(int tenant_id, CommandWhitelist whitelist,
                                     bool continuous_position);
  VirtualFlightController* FindVfc(int tenant_id);
  const std::vector<std::unique_ptr<VirtualFlightController>>& vfcs() const {
    return vfcs_;
  }

  // Geofence recovery wiring (paper §4.3): while the flight controller
  // guides the drone back inside, the breaching tenant's commands are
  // refused; on recovery, control returns.
  void OnFenceBreach(int tenant_id);
  void OnFenceRecovered(int tenant_id);

  // Safety-supervisor override wiring: the recovery controller owns the
  // *physical* drone, so every tenant's commands are refused until the
  // supervisor hands control back (wire to
  // FlightController::SetSafetyCallbacks).
  void OnSafetyOverride();
  void OnSafetyRelease();

  // Coalesces planner wire telemetry into batched datagrams. Without this,
  // every telemetry frame costs one VPN datagram (encap copy + one scheduled
  // delivery event); with it, N frames cost one.
  void EnableTelemetryBatching(const TelemetryBatchConfig& config = {});
  // Emits any queued batch immediately and cancels the pending deadline.
  // Call at end of flight to drain residual frames.
  void FlushTelemetryBatch();

  // Attaches the mavlink trace category: every planner-wire frame encode
  // records an instant ("mav.encode", arg = encoded bytes so far in the
  // batch) and every emitted datagram records an instant ("mav.flush",
  // arg = datagram bytes). Pass nullptr to detach.
  void SetTrace(TraceRecorder* trace);

  uint64_t master_frames() const { return master_frames_; }
  // Telemetry frames encoded onto the planner wire, and datagrams actually
  // emitted (equal when batching is off).
  uint64_t wire_frames() const { return wire_frames_; }
  uint64_t wire_flushes() const { return wire_flushes_; }

  // --- Checkpoint/restore (DESIGN.md §13) ---
  // Persists counters, the in-flight telemetry batch (bytes + armed
  // deadline), and each VFC's view machine in creation order. The
  // restoring world must have created the identical VFC roster (same
  // Deploy at the same seed) before the load. Instantiated for SaveArchive
  // and LoadArchive in mavproxy.cc.
  template <class Ar>
  Status Visit(Ar& ar);

 private:
  void SendToMaster(const MavlinkFrame& frame);
  // Flushes the batch at |when| unless it flushes early.
  void ArmBatchDeadline(SimTime when);

  SimClock* clock_;
  FrameSink to_master_;
  FrameSink to_planner_;
  WireSink to_planner_wire_;
  std::vector<uint8_t> planner_wire_scratch_;
  std::vector<std::unique_ptr<VirtualFlightController>> vfcs_;
  uint64_t master_frames_ = 0;

  // Telemetry batching state. The deadline event is armed when the first
  // frame enters an empty batch and cancelled whenever the batch flushes
  // early on the size watermark.
  bool batching_enabled_ = false;
  TelemetryBatchConfig batch_config_;
  std::vector<uint8_t> batch_scratch_;
  EventId batch_deadline_ = 0;
  bool batch_deadline_armed_ = false;
  uint64_t wire_frames_ = 0;
  uint64_t wire_flushes_ = 0;

  TraceRecorder* trace_ = nullptr;
  uint32_t encode_name_ = 0;
  uint32_t flush_name_ = 0;
};

}  // namespace androne

#endif  // SRC_MAVPROXY_MAVPROXY_H_
