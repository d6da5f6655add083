// The integrated AnDrone physical drone (paper Figure 3): one SimClock
// hosting the hardware models, the container runtime with device + flight
// containers, the flight stack (physics + ArduPilot-analog controller
// reading sensors through the device container's snapshot), MAVProxy with
// per-tenant virtual flight controllers, and the VDC. Also implements the
// flight-plan executor that flies planned routes waypoint-to-waypoint,
// handing control to each tenant in turn (the paper's Figure 4 workflow and
// the §6.6 multi-waypoint simulation).
#ifndef SRC_CORE_DRONE_H_
#define SRC_CORE_DRONE_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/cloud/flight_planner.h"
#include "src/core/vdc.h"
#include "src/flight/flight_controller.h"
#include "src/hw/gimbal.h"
#include "src/hw/power.h"
#include "src/hw/sensors.h"
#include "src/mavlink/reliable.h"
#include "src/mavproxy/mavproxy.h"
#include "src/rt/kernel_model.h"
#include "src/snapshot/snapshot.h"

namespace androne {

class TraceRecorder;

struct AnDroneOptions {
  GeoPoint base;                 // Launch/return position.
  uint64_t seed = 1;
  // Seed used to construct the *boot-time* RNG streams (sensor noise,
  // kernel wake latency, reliable-sender jitter, sensor-fault noise).
  // 0 means "use |seed|" — the historical single-seed behavior. The
  // boot-once/fork-many path (DESIGN.md §14) boots every fleet world with
  // one canonical boot seed so post-boot state is seed-independent, then
  // calls ReseedStreams(seed) at the post-boot/pre-mission boundary.
  uint64_t boot_seed = 0;
  // When false, Boot() skips the 2 s sensor/estimator warmup run. Only
  // the clone path uses this: it restores a template snapshot captured
  // *after* warmup, so running warmup first would be wasted work (and its
  // pending timers are dropped by SimClock::ResetForRestore anyway).
  bool boot_warmup = true;
  WhitelistTemplate default_whitelist = WhitelistTemplate::kStandard;
  // Dwell limit at waypoints whose tenant requests no flight control and
  // never calls waypointCompleted().
  double no_control_dwell_s = 20.0;
  // Usable RAM for container admission; 0 means the default board budget
  // (on which the paper's 4th virtual drone fails to start — Figure 12).
  // Benches that sweep tenant counts past 3 model a larger cloud host.
  double memory_budget_mb = 0;
  // Optional structured-trace recorder (owned by the caller, must outlive
  // the system). Boot() attaches it to the binder driver, container
  // runtime, MAVProxy, and the safety supervisor; nullptr disables
  // instrumentation at a single-branch cost per site.
  TraceRecorder* trace = nullptr;
  // Optional scripted sensor-fault plan (owned by the caller, must outlive
  // the system). Boot() wraps the flight controller's sensor source in a
  // FaultySensorSource over this plan, so scenario chaos scripts corrupt
  // the integrated system's sensor reads exactly as they do a SitlDrone's.
  const SensorFaultPlan* sensor_faults = nullptr;
};

struct FlightExecutionReport {
  bool completed = false;
  std::vector<std::string> events;  // Human-readable milestone log (§6.6).
  double flight_time_s = 0;
  double battery_used_j = 0;
  size_t waypoints_visited = 0;
};

// The route executor as a resumable phase machine (DESIGN.md §13). The
// mission driver pumps the clock in 100 ms chunks and invokes the mission
// pulse between chunks; all cross-chunk state lives here so a checkpoint
// taken at any pulse captures exactly where the mission stands. Phase entry
// actions run only once (|entered| latches), which lets phase-boundary
// checkpoints land *before* the entry commands: a restored world re-enters
// the phase and re-issues them deterministically.
struct MissionProgress {
  enum class Phase : uint32_t {
    kIdle = 0,     // No mission driven yet (or finished long ago).
    kTakeoff = 1,  // Arming + climb to cruise altitude.
    kLeg = 2,      // Planner-guided flight toward stop |stop_index|.
    kDwell = 3,    // Tenancy active at stop |stop_index|.
    kRtl = 4,      // Return to base + landing + post-flight saves.
    kDone = 5,     // Report complete.
  };
  Phase phase = Phase::kIdle;
  size_t stop_index = 0;       // Route stop being flown/served.
  SimTime phase_deadline = 0;  // Absolute timeout of the current wait.
  bool entered = false;        // Phase entry actions already issued.
  bool saw_override = false;   // Safety override observed during this wait.
  FlightExecutionReport report;
  double battery_at_start = 0;
  SimTime start = 0;

  bool InFlight() const {
    return phase != Phase::kIdle && phase != Phase::kDone;
  }

  template <class Ar>
  Status Visit(Ar& ar);
};

class AnDroneSystem {
 public:
  AnDroneSystem(SimClock* clock, AnDroneOptions options);
  ~AnDroneSystem();

  // Boots containers, services, and the flight stack. Call once.
  Status Boot();

  // Re-seeds every RNG stream that Boot() created, to exactly the state a
  // fresh construction with options.seed == |seed| would produce. This is
  // the divergence point of boot-once/fork-many (DESIGN.md §14): worlds
  // share one canonical boot (same boot_seed ⇒ byte-identical post-boot
  // state, whether cold-booted or restored from the template blob), then
  // fork here into per-world randomness. Call at the post-boot boundary,
  // before any Deploy or mission traffic.
  void ReseedStreams(uint64_t seed);

  // Deploys a virtual drone and creates its VFC with the given whitelist.
  StatusOr<VirtualDroneInstance*> Deploy(const VirtualDroneDefinition& def,
                                         WhitelistTemplate whitelist);
  StatusOr<VirtualDroneInstance*> Deploy(const VirtualDroneDefinition& def) {
    return Deploy(def, options_.default_whitelist);
  }

  // Flies one planned route end-to-end: takeoff, per-stop tenancy
  // management, return to base, landing, then VDR save + file offload.
  StatusOr<FlightExecutionReport> ExecuteRoute(
      const PlannedRoute& route, const std::vector<PlannerJob>& jobs);

  // Continues a mission whose MissionProgress was restored from a
  // checkpoint: drives the same phase machine from wherever the snapshot
  // left it. The route/jobs must be the ones the interrupted mission flew.
  StatusOr<FlightExecutionReport> ResumeRoute(
      const PlannedRoute& route, const std::vector<PlannerJob>& jobs);

  // Invoked between every 100 ms clock chunk the mission driver runs and
  // once at each phase entry (before the entry commands go out). Returning
  // false stops the driver immediately — ExecuteRoute/ResumeRoute then
  // return CANCELLED ("mission interrupted"), which the fleet recovery
  // loop maps to a scheduled crash. The checkpoint policy lives in this
  // hook: it sees the world quiescent between events.
  using MissionPulse = std::function<bool()>;
  void SetMissionPulse(MissionPulse pulse) { mission_pulse_ = std::move(pulse); }
  const MissionProgress& mission_progress() const { return progress_; }

  // --- Checkpoint/restore (DESIGN.md §13) ---
  // Lists the complete dynamic state of the booted system: hardware
  // (physics truth, sensor RNG streams, actuators, battery), the flight
  // stack, MAVProxy + VFCs, the VDC's tenancy/accounting state, container
  // lifecycle counters, binder counters, and the mission phase machine.
  // The restoring system must have been built by the identical Boot() +
  // Deploy() sequence at the same seed before the load. Instantiated for
  // SaveArchive and LoadArchive in drone.cc.
  template <class Ar>
  Status Visit(Ar& ar);
  // Entry points over Visit for callers holding a bare writer or reader.
  // RestoreState keeps the re-arm handlers its load registered;
  // RegisterTimers moves them into |rearmer| for TimerRearmer::Replay.
  void SaveState(SnapshotWriter& w, TimerRegistry& timers) const;
  Status RestoreState(SnapshotReader& r);
  void RegisterTimers(TimerRearmer& rearmer);

  // Aborts the in-progress flight (inclement weather, operator override —
  // paper §2): the active tenancy ends as interrupted, remaining stops are
  // skipped, the drone returns to base, and unfinished virtual drones are
  // saved resumable. Callable from a scheduled clock event.
  void RequestAbort(const std::string& reason);
  bool abort_requested() const { return abort_requested_; }

  // Advances simulated time until |predicate| or |timeout|.
  bool RunClockUntil(const std::function<bool()>& predicate,
                     SimDuration timeout);

  // --- Accessors ---
  SimClock& clock() { return *clock_; }
  Vdc& vdc() { return *vdc_; }
  MavProxy& proxy() { return *proxy_; }
  FlightController& flight() { return *flight_controller_; }
  QuadPhysics& physics() { return *physics_; }
  ContainerRuntime& runtime() { return *runtime_; }
  Battery& battery() { return battery_; }
  DeviceContainerStack& device_stack() { return device_stack_; }
  VirtualDroneRepository& vdr() { return vdr_; }
  CloudStorage& cloud_storage() { return cloud_storage_; }
  VirtualFlightController* VfcOf(const std::string& vdrone_id);
  ReliableCommandSender& planner_sender() { return *planner_sender_; }
  ImageId base_image() const { return base_image_; }
  // Non-null only when options.sensor_faults was set at Boot().
  const SensorFaultInjector* sensor_fault_injector() const {
    return sensor_fault_injector_.get();
  }
  // Mutable view for the replay engine's footer install (DESIGN.md §15).
  SensorFaultInjector* mutable_sensor_fault_injector() {
    return sensor_fault_injector_.get();
  }

 private:
  // Planner-endpoint MAVLink helpers.
  void PlannerSend(const MavMessage& message);
  void ArmAccounting(SimTime when);
  void AccountingTick();
  void ApplyTenantGeofence(const VirtualDroneInstance& vd, size_t waypoint);
  void ClearGeofence();
  void Event(FlightExecutionReport& report, const std::string& text);

  // Mission phase machine (see MissionProgress). DriveMission loops
  // MissionStep until kDone; each step performs at most one phase's entry +
  // wait, pumping the clock in 100 ms chunks and pulsing between them.
  StatusOr<FlightExecutionReport> DriveMission(
      const PlannedRoute& route, const std::vector<PlannerJob>& jobs);
  Status MissionStep(const PlannedRoute& route,
                     const std::vector<PlannerJob>& jobs);
  Status StepTakeoff();
  Status StepLeg(const PlannedRoute& route,
                 const std::vector<PlannerJob>& jobs);
  Status StepDwell(const PlannedRoute& route,
                   const std::vector<PlannerJob>& jobs);
  Status StepRtl();
  void EnterPhase(MissionProgress::Phase phase);
  bool Pulse();  // False = interrupted (crash scheduled by the pulse owner).
  void SendLegCommands(const GeoPoint& target);
  void SendRtlCommand();
  // Pumps the clock in 100 ms chunks until |pred| holds or the phase
  // deadline passes, with RunClockUntil's check ordering (predicate at the
  // top of each chunk, once more after the deadline). |after_chunk| (may be
  // null) runs after every chunk — the legs hang their safety-release
  // resumption there — then the mission pulse; a vetoing pulse returns
  // CANCELLED. *satisfied reports the final predicate value.
  Status PumpPhase(const std::function<bool()>& pred,
                   const std::function<void()>& after_chunk, bool* satisfied);

  SimClock* clock_;
  AnDroneOptions options_;

  // Hardware. The raw sensor/actuator pointers are owned by |bus_| and kept
  // here so the checkpoint path can reach their noise streams directly.
  std::unique_ptr<QuadPhysics> physics_;
  HardwareBus bus_;
  MotorSet* motors_ = nullptr;
  GpsReceiver* gps_ = nullptr;
  Imu* imu_ = nullptr;
  Barometer* baro_ = nullptr;
  Magnetometer* mag_ = nullptr;
  Microphone* microphone_ = nullptr;
  Speaker* speaker_ = nullptr;
  Gimbal* gimbal_ = nullptr;
  Battery battery_;
  ComputePowerModel compute_power_;

  // OS substrate.
  BinderDriver binder_;
  ImageStore images_;
  std::unique_ptr<ContainerRuntime> runtime_;
  ImageId base_image_ = 0;
  Container* device_container_ = nullptr;
  Container* flight_container_ = nullptr;
  DeviceContainerStack device_stack_;

  // Flight stack.
  std::unique_ptr<BusSensorSource> bus_source_;
  std::unique_ptr<SensorFaultInjector> sensor_fault_injector_;
  std::unique_ptr<FaultySensorSource> faulty_sensors_;
  std::unique_ptr<FlightController> flight_controller_;
  std::unique_ptr<WakeLatencySampler> latency_sampler_;
  std::unique_ptr<MavProxy> proxy_;
  std::unique_ptr<ReliableCommandSender> planner_sender_;

  // Cloud-side stores co-simulated locally.
  VirtualDroneRepository vdr_;
  CloudStorage cloud_storage_;

  std::unique_ptr<Vdc> vdc_;
  std::map<std::string, VirtualFlightController*> vfcs_;

  // Tenancy-end events raised by the VDC, consumed by the executor.
  struct TenancyEnd {
    std::string vdrone_id;
    TenancyEndReason reason;
  };
  std::deque<TenancyEnd> pending_ends_;

  bool booted_ = false;
  bool accounting_running_ = false;
  EventId accounting_event_ = 0;
  TimerRearmer restored_timers_;  // Filled by RestoreState.
  bool abort_requested_ = false;
  std::string abort_reason_;

  MissionProgress progress_;
  MissionPulse mission_pulse_;
};

}  // namespace androne

#endif  // SRC_CORE_DRONE_H_
