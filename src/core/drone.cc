#include "src/core/drone.h"

#include <cmath>
#include <string>
#include <utility>

#include "src/hw/camera.h"
#include "src/rt/load_profile.h"
#include "src/snapshot/archive.h"
#include "src/util/logging.h"

namespace androne {

namespace {
constexpr double kArrivalThresholdM = 3.0;
constexpr double kCruiseAltitudeM = 15.0;
// The flight container's kernel: its wake latency is injected into every
// fast-loop tick.
constexpr PreemptionModel kFlightKernel = PreemptionModel::kPreemptRt;
}  // namespace

AnDroneSystem::AnDroneSystem(SimClock* clock, AnDroneOptions options)
    : clock_(clock), options_(options) {}

AnDroneSystem::~AnDroneSystem() {
  if (flight_controller_ != nullptr) {
    flight_controller_->Stop();
  }
  accounting_running_ = false;
}

Status AnDroneSystem::Boot() {
  if (booted_) {
    return FailedPreconditionError("already booted");
  }
  const uint64_t boot_seed =
      options_.boot_seed != 0 ? options_.boot_seed : options_.seed;

  // --- Hardware ---
  physics_ = std::make_unique<QuadPhysics>(options_.base);
  DroneGroundTruth* truth = physics_->mutable_truth();
  bus_.Register(std::make_unique<Camera>(clock_, truth));
  gps_ = bus_.Register(
      std::make_unique<GpsReceiver>(clock_, truth, boot_seed + 1));
  imu_ = bus_.Register(std::make_unique<Imu>(clock_, truth, boot_seed + 2));
  baro_ = bus_.Register(
      std::make_unique<Barometer>(clock_, truth, boot_seed + 3));
  mag_ = bus_.Register(
      std::make_unique<Magnetometer>(clock_, truth, boot_seed + 4));
  microphone_ = bus_.Register(std::make_unique<Microphone>(clock_));
  speaker_ = bus_.Register(std::make_unique<Speaker>());
  gimbal_ = bus_.Register(std::make_unique<Gimbal>());
  motors_ = bus_.Register(std::make_unique<MotorSet>());

  // --- Containers ---
  runtime_ = std::make_unique<ContainerRuntime>(
      &binder_, &images_,
      options_.memory_budget_mb > 0 ? options_.memory_budget_mb
                                    : kUsableMemoryMb);
  // Attach tracing before the first container/transaction so boot-time
  // lifecycle events are captured too.
  if (options_.trace != nullptr) {
    binder_.SetTrace(options_.trace);
    runtime_->SetTrace(options_.trace);
  }
  LayerId base_layer = images_.AddLayer(LayerFiles{
      {"/system/build.prop", {"androne-things-1.0.3", false}},
      {"/system/framework/framework.jar", {std::string(4096, 'f'), false}},
  });
  ASSIGN_OR_RETURN(base_image_,
                   images_.CreateImage("androne-base", {base_layer}));

  ASSIGN_OR_RETURN(flight_container_,
                   runtime_->CreateContainer("flight", ContainerKind::kFlight,
                                             base_image_));
  RETURN_IF_ERROR(runtime_->StartContainer(flight_container_->id()));
  // The flight container gets a minimal context manager so PUBLISH_TO_ALL_NS
  // reaches its namespace (paper §4.3 HAL support).
  ASSIGN_OR_RETURN(const ContainerProcess* flight_init,
                   flight_container_->FindProcess("init"));
  RETURN_IF_ERROR(ServiceManager::Install(flight_init->binder).status());

  ASSIGN_OR_RETURN(device_container_,
                   runtime_->CreateContainer("device", ContainerKind::kDevice,
                                             base_image_));
  RETURN_IF_ERROR(runtime_->StartContainer(device_container_->id()));
  ASSIGN_OR_RETURN(device_stack_,
                   BootDeviceContainer(*runtime_, device_container_->id(),
                                       bus_, flight_container_->id(), clock_));

  // --- Flight stack ---
  // The flight controller's own actuators stay with the flight container
  // (motors and the camera mount are flight-control hardware).
  RETURN_IF_ERROR(motors_->Open(flight_container_->id()));
  RETURN_IF_ERROR(gimbal_->Open(flight_container_->id()));
  ASSIGN_OR_RETURN(const ContainerProcess* ardupilot,
                   flight_container_->FindProcess("ardupilot"));
  BinderProc* ardupilot_proc = ardupilot->binder;

  // The flight stack reads the device container's sensor snapshot by
  // reference: the hub samples each sensor once per cadence period and
  // publishes it for every consumer (paper §4.3 device sharing).
  bus_source_ =
      std::make_unique<BusSensorSource>(device_stack_.sensor_hub.get());
  SensorSource* sensor_source = bus_source_.get();
  // Scripted sensor chaos decorates the bus reads.
  if (options_.sensor_faults != nullptr) {
    sensor_fault_injector_ = std::make_unique<SensorFaultInjector>(
        options_.sensor_faults, clock_, boot_seed + 13);
    faulty_sensors_ = std::make_unique<FaultySensorSource>(
        sensor_source, sensor_fault_injector_.get());
    sensor_source = faulty_sensors_.get();
  }

  FlightControllerConfig fc_config;
  fc_config.home = options_.base;
  flight_controller_ = std::make_unique<FlightController>(
      clock_, physics_.get(), motors_, sensor_source, &battery_, fc_config);
  latency_sampler_ = std::make_unique<WakeLatencySampler>(
      kFlightKernel, IdleLoad(), boot_seed + 9);
  flight_controller_->SetLatencySampler(latency_sampler_.get());
  // MAV_CMD_DO_DIGICAM_CONTROL routes through the shared CameraService
  // (the flight container is a trusted caller of the device container).
  flight_controller_->SetCameraTrigger([ardupilot_proc]() -> Status {
    ASSIGN_OR_RETURN(BinderHandle cam,
                     SmGetService(ardupilot_proc, kCameraServiceName));
    Parcel req;
    return ardupilot_proc->Transact(cam, kCamCapture, req).status();
  });
  Gimbal* gimbal = gimbal_;
  ContainerId flight_id = flight_container_->id();
  flight_controller_->SetMountControl(
      [gimbal, flight_id](double pitch, double roll, double yaw) {
        return gimbal->SetOrientation(flight_id, pitch, roll, yaw);
      });

  // --- MAVProxy ---
  proxy_ = std::make_unique<MavProxy>(clock_);
  if (options_.trace != nullptr) {
    proxy_->SetTrace(options_.trace);
    flight_controller_->safety().SetTrace(options_.trace);
  }
  proxy_->SetMasterSink([this](const MavlinkFrame& frame) {
    flight_controller_->HandleFrame(frame);
  });
  flight_controller_->SetSender([this](const MavlinkFrame& frame) {
    proxy_->HandleMasterFrame(frame);
  });

  // Planner commands go out ack-tracked: locally the ack resolves in the
  // same event, but the same executor then survives a lossy planner link.
  planner_sender_ =
      std::make_unique<ReliableCommandSender>(clock_, boot_seed + 11);
  planner_sender_->SetSendSink([this](const MavlinkFrame& frame) {
    proxy_->HandlePlannerFrame(frame);
  });
  proxy_->SetPlannerSink([this](const MavlinkFrame& frame) {
    planner_sender_->HandleFrame(frame);
  });

  // --- VDC ---
  vdc_ = std::make_unique<Vdc>(clock_, runtime_.get(), &device_stack_, &vdr_,
                               &cloud_storage_, base_image_);
  vdc_->SetTenancyEndCallback(
      [this](const std::string& vdrone_id, TenancyEndReason reason) {
        pending_ends_.push_back(TenancyEnd{vdrone_id, reason});
      });

  // Geofence events route to the active tenant's VFC and SDK (paper §4.3).
  flight_controller_->SetFenceCallbacks(
      [this] {
        const std::string& tenant = vdc_->active_tenant();
        if (!tenant.empty()) {
          auto vfc = vfcs_.find(tenant);
          if (vfc != vfcs_.end()) {
            vfc->second->SuspendForFenceRecovery();
          }
          vdc_->NotifyFenceBreach();
        }
      },
      [this] {
        const std::string& tenant = vdc_->active_tenant();
        if (!tenant.empty()) {
          auto vfc = vfcs_.find(tenant);
          if (vfc != vfcs_.end()) {
            vfc->second->ResumeAfterFenceRecovery();
          }
          vdc_->NotifyFenceRecovered();
        }
      });
  // A safety override suspends every tenant's commands until it releases.
  flight_controller_->SetSafetyCallbacks([this] { proxy_->OnSafetyOverride(); },
                                         [this] { proxy_->OnSafetyRelease(); });

  flight_controller_->Start();

  // Accounting + compute-power tick at 1 Hz.
  accounting_running_ = true;
  ArmAccounting(clock_->now() + Seconds(1));

  booted_ = true;
  // Let sensors and the estimator warm up (GPS acquisition). The clone
  // path skips this: a template snapshot captured after warmup is about
  // to be overlaid, and ResetForRestore drops boot's pending timers.
  if (options_.boot_warmup) {
    clock_->RunFor(Seconds(2));
  }
  return OkStatus();
}

void AnDroneSystem::ReseedStreams(uint64_t seed) {
  // Each stream is reset to exactly the state its constructor at
  // options.seed == |seed| would have produced — same derived seed per
  // stream, so a reseeded canonical boot equals a legacy single-seed boot
  // from this point on *for mission-time draws*.
  gps_->checkpoint_rng() = Rng(seed + 1);
  imu_->checkpoint_rng() = Rng(seed + 2);
  baro_->checkpoint_rng() = Rng(seed + 3);
  mag_->checkpoint_rng() = Rng(seed + 4);
  latency_sampler_->checkpoint_rng() = Rng(seed + 9);
  planner_sender_->checkpoint_rng() = Rng(seed + 11);
  if (sensor_fault_injector_ != nullptr) {
    sensor_fault_injector_->checkpoint_rng() =
        Rng(SplitMix64((seed + 13) ^ 0x5ef5u));
  }
}

void AnDroneSystem::AccountingTick() {
  if (!accounting_running_) {
    return;
  }
  vdc_->AccountActiveTenant(Seconds(1));
  int vdrones = 0;
  for (Container* c : runtime_->ListContainers()) {
    vdrones += (c->kind() == ContainerKind::kVirtualDrone &&
                c->state() == ContainerState::kRunning)
                   ? 1
                   : 0;
  }
  battery_.Drain(compute_power_.Watts(0.08, 2 + vdrones, vdrones),
                 Seconds(1));
  ArmAccounting(clock_->now() + Seconds(1));
}

void AnDroneSystem::ArmAccounting(SimTime when) {
  accounting_event_ = clock_->ScheduleAt(when, [this] { AccountingTick(); });
}

StatusOr<VirtualDroneInstance*> AnDroneSystem::Deploy(
    const VirtualDroneDefinition& def, WhitelistTemplate whitelist) {
  if (!booted_) {
    return FailedPreconditionError("boot the drone first");
  }
  ASSIGN_OR_RETURN(VirtualDroneInstance * vd, vdc_->Deploy(def));
  VirtualFlightController* vfc =
      proxy_->CreateVfc(vd->container->id(),
                        CommandWhitelist::FromTemplate(whitelist),
                        !def.continuous_devices.empty());
  std::string id = def.id;
  vfc->SetControlQuery(
      [this, id] { return vdc_->AllowsFlightControl(id); });
  vfcs_[def.id] = vfc;
  return vd;
}

VirtualFlightController* AnDroneSystem::VfcOf(const std::string& vdrone_id) {
  auto it = vfcs_.find(vdrone_id);
  return it == vfcs_.end() ? nullptr : it->second;
}

void AnDroneSystem::PlannerSend(const MavMessage& message) {
  if (const auto* cmd = std::get_if<CommandLong>(&message)) {
    planner_sender_->SendCommand(*cmd);
    return;
  }
  proxy_->HandlePlannerFrame(PackMessage(message));
}

bool AnDroneSystem::RunClockUntil(const std::function<bool()>& predicate,
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

void AnDroneSystem::Event(FlightExecutionReport& report,
                          const std::string& text) {
  report.events.push_back(
      "[t=" + std::to_string(ToMillis(clock_->now()) / 1000.0) + "s] " + text);
  ALOG(kInfo, "drone") << text;
}

void AnDroneSystem::ApplyTenantGeofence(const VirtualDroneInstance& vd,
                                        size_t waypoint) {
  const WaypointSpec& wp = vd.definition.waypoints[waypoint];
  GeofenceConfig fence;
  fence.enabled = true;
  fence.center = wp.point;
  fence.radius_m = wp.max_radius_m;
  fence.max_altitude_m = wp.point.altitude_m + wp.max_radius_m;
  flight_controller_->SetGeofence(fence);
}

void AnDroneSystem::ClearGeofence() {
  flight_controller_->SetGeofence(GeofenceConfig{});
}

// --- Mission phase machine (DESIGN.md §13) ---

bool AnDroneSystem::Pulse() {
  return !mission_pulse_ || mission_pulse_();
}

void AnDroneSystem::EnterPhase(MissionProgress::Phase phase) {
  progress_.phase = phase;
  progress_.entered = false;
  progress_.saw_override = false;
  progress_.phase_deadline = 0;
}

Status AnDroneSystem::PumpPhase(const std::function<bool()>& pred,
                                const std::function<void()>& after_chunk,
                                bool* satisfied) {
  while (clock_->now() < progress_.phase_deadline) {
    if (pred()) {
      *satisfied = true;
      return OkStatus();
    }
    clock_->RunUntil(clock_->now() + Millis(100));
    if (after_chunk) {
      after_chunk();
    }
    if (!Pulse()) {
      return CancelledError("mission interrupted");
    }
  }
  *satisfied = pred();
  return OkStatus();
}

void AnDroneSystem::SendLegCommands(const GeoPoint& target) {
  SetMode guided;
  guided.custom_mode = static_cast<uint32_t>(CopterMode::kGuided);
  PlannerSend(MavMessage{guided});
  PlannerSend(MavMessage{GotoTarget(target)});
}

void AnDroneSystem::SendRtlCommand() {
  CommandLong rtl;
  rtl.command = static_cast<uint16_t>(MavCmd::kNavReturnToLaunch);
  PlannerSend(MavMessage{rtl});
}

Status AnDroneSystem::StepTakeoff() {
  if (!progress_.entered) {
    if (!Pulse()) {
      return CancelledError("mission interrupted");
    }
    progress_.entered = true;
    SetMode guided;
    guided.custom_mode = static_cast<uint32_t>(CopterMode::kGuided);
    PlannerSend(MavMessage{guided});
    CommandLong arm;
    arm.command = static_cast<uint16_t>(MavCmd::kComponentArmDisarm);
    arm.param1 = 1;
    PlannerSend(MavMessage{arm});
    if (!flight_controller_->armed()) {
      return FailedPreconditionError("arming failed (no GPS fix?)");
    }
    CommandLong takeoff;
    takeoff.command = static_cast<uint16_t>(MavCmd::kNavTakeoff);
    takeoff.param7 = static_cast<float>(kCruiseAltitudeM);
    PlannerSend(MavMessage{takeoff});
    progress_.phase_deadline = clock_->now() + Seconds(60);
  }
  bool satisfied = false;
  RETURN_IF_ERROR(PumpPhase(
      [this] {
        return std::fabs(physics_->truth().position.altitude_m -
                         kCruiseAltitudeM) < 1.0;
      },
      nullptr, &satisfied));
  if (!satisfied) {
    return DeadlineExceededError("takeoff did not reach cruise altitude");
  }
  Event(progress_.report, "took off to cruise altitude");
  EnterPhase(MissionProgress::Phase::kLeg);
  return OkStatus();
}

Status AnDroneSystem::StepLeg(const PlannedRoute& route,
                              const std::vector<PlannerJob>& jobs) {
  if (progress_.stop_index >= route.stops.size()) {
    EnterPhase(MissionProgress::Phase::kRtl);
    return OkStatus();
  }
  const PlannedStop& stop = route.stops[progress_.stop_index];
  const PlannerJob& job = jobs[stop.job_index];
  const std::string& vdrone_id = job.vdrone_ref;
  if (!progress_.entered) {
    if (!Pulse()) {
      return CancelledError("mission interrupted");
    }
    if (abort_requested_) {
      Event(progress_.report, "flight aborted (" + abort_reason_ +
                                  "); skipping remaining waypoints");
      EnterPhase(MissionProgress::Phase::kRtl);
      return OkStatus();
    }
    ASSIGN_OR_RETURN(VirtualDroneInstance * vd, vdc_->Find(vdrone_id));
    if (vd->exhausted) {
      Event(progress_.report,
            "skipping waypoint for exhausted tenant " + vdrone_id);
      ++progress_.stop_index;
      return OkStatus();  // Re-enters kLeg for the next stop.
    }
    // Fly to the waypoint (planner-guided, paper Figure 4).
    SendLegCommands(job.waypoint);
    progress_.entered = true;
    progress_.saw_override = false;
    progress_.phase_deadline = clock_->now() + Seconds(600);
  }
  // En-route wait with safety-release resumption: the supervisor's release
  // path parks the controller in loiter (its guided target may be minutes
  // stale, so the controller will not chase it), which leaves resumption to
  // the mission layer. After each observed override episode ends, the leg is
  // re-asserted — otherwise a transient sensor glitch strands the drone in a
  // hover until the leg deadline.
  const GeoPoint target = job.waypoint;
  bool satisfied = false;
  RETURN_IF_ERROR(PumpPhase(
      [this, target] {
        return abort_requested_ ||
               Distance3dMeters(physics_->truth().position, target) <
                   kArrivalThresholdM;
      },
      [this, target] {
        if (flight_controller_->safety().overriding()) {
          progress_.saw_override = true;
        } else if (progress_.saw_override) {
          progress_.saw_override = false;
          Event(progress_.report,
                "re-asserting route leg after safety release");
          SendLegCommands(target);
        }
      },
      &satisfied));
  if (!satisfied && !abort_requested_ &&
      Distance3dMeters(physics_->truth().position, target) >=
          kArrivalThresholdM) {
    return DeadlineExceededError("failed to reach waypoint");
  }
  if (abort_requested_) {
    Event(progress_.report,
          "flight aborted (" + abort_reason_ + ") en route");
    EnterPhase(MissionProgress::Phase::kRtl);
    return OkStatus();
  }
  EnterPhase(MissionProgress::Phase::kDwell);
  return OkStatus();
}

Status AnDroneSystem::StepDwell(const PlannedRoute& route,
                                const std::vector<PlannerJob>& jobs) {
  const PlannedStop& stop = route.stops[progress_.stop_index];
  const PlannerJob& job = jobs[stop.job_index];
  const std::string& vdrone_id = job.vdrone_ref;
  ASSIGN_OR_RETURN(VirtualDroneInstance * vd, vdc_->Find(vdrone_id));
  VirtualFlightController* vfc = VfcOf(vdrone_id);
  const bool controls = vd->definition.WantsFlightControl();
  if (!progress_.entered) {
    if (!Pulse()) {
      return CancelledError("mission interrupted");
    }
    progress_.entered = true;
    Event(progress_.report,
          "arrived at waypoint " + std::to_string(job.waypoint_index) +
              " of " + vdrone_id);
    ++progress_.report.waypoints_visited;
    // Hand over: geofenced flight control first, so it is already live when
    // the waypointActive() callback reaches the tenant's apps (paper §5:
    // "after receiving this callback, the app ... has access to flight
    // control"), then devices via the VDC.
    if (controls) {
      ApplyTenantGeofence(*vd, static_cast<size_t>(job.waypoint_index));
      if (vfc != nullptr) {
        vfc->GrantControl();
      }
      Event(progress_.report, vdrone_id + " given flight control (geofenced)");
    }
    RETURN_IF_ERROR(vdc_->NotifyWaypointReached(
        vdrone_id, static_cast<size_t>(job.waypoint_index)));
    SimDuration dwell_limit =
        controls ? SecondsF(vd->definition.max_duration_s + 5)
                 : SecondsF(options_.no_control_dwell_s);
    progress_.phase_deadline = clock_->now() + dwell_limit;
  }
  // Wait for the tenancy to end.
  const std::string ended_id = vdrone_id;
  bool satisfied = false;
  RETURN_IF_ERROR(PumpPhase(
      [this, ended_id] {
        if (abort_requested_) {
          return true;
        }
        for (const TenancyEnd& end : pending_ends_) {
          if (end.vdrone_id == ended_id) {
            return true;
          }
        }
        return false;
      },
      nullptr, &satisfied));
  TenancyEndReason reason = TenancyEndReason::kCompleted;
  bool found_end = false;
  for (const TenancyEnd& end : pending_ends_) {
    if (end.vdrone_id == vdrone_id) {
      reason = end.reason;
      found_end = true;
    }
  }
  pending_ends_.clear();
  if (abort_requested_ && !found_end) {
    reason = TenancyEndReason::kInterrupted;
  } else if (!found_end) {
    reason = TenancyEndReason::kTimeExhausted;
  }

  // Take back control.
  if (vfc != nullptr) {
    vfc->RevokeControl();
  }
  ClearGeofence();
  RETURN_IF_ERROR(vdc_->NotifyWaypointLeft(vdrone_id, reason));
  Event(progress_.report,
        vdrone_id + " tenancy ended (" + TenancyEndReasonName(reason) + ")");

  // Resume planner control toward the next objective.
  SetMode guided;
  guided.custom_mode = static_cast<uint32_t>(CopterMode::kGuided);
  PlannerSend(MavMessage{guided});
  ++progress_.stop_index;
  EnterPhase(MissionProgress::Phase::kLeg);
  return OkStatus();
}

Status AnDroneSystem::StepRtl() {
  if (!progress_.entered) {
    if (!Pulse()) {
      return CancelledError("mission interrupted");
    }
    progress_.entered = true;
    progress_.saw_override = false;
    SendRtlCommand();
    progress_.phase_deadline = clock_->now() + Seconds(600);
  }
  // Same resumption contract as the route legs: a safety release parks the
  // controller in loiter, so RTL must be re-issued after each override
  // episode or the drone hovers at altitude until the landing deadline.
  bool satisfied = false;
  RETURN_IF_ERROR(PumpPhase(
      [this] { return !flight_controller_->armed(); },
      [this] {
        if (flight_controller_->safety().overriding()) {
          progress_.saw_override = true;
        } else if (progress_.saw_override) {
          progress_.saw_override = false;
          Event(progress_.report,
                "re-asserting return-to-launch after safety release");
          SendRtlCommand();
        }
      },
      &satisfied));
  if (!satisfied) {
    return DeadlineExceededError("drone failed to return and land");
  }
  Event(progress_.report, "returned to base and landed");

  // Post-flight: offload artifacts and save tenants to the VDR (Figure 4).
  // Anything with unserved waypoints is saved resumable — both exhausted
  // tenants and those cut short by an aborted flight (paper §2).
  for (VirtualDroneInstance* vd : vdc_->instances()) {
    (void)vdc_->OffloadFiles(vd->definition.id);
    bool resumable =
        vd->waypoints_served < vd->definition.waypoints.size();
    (void)vdc_->StoreToVdr(vd->definition.id, resumable);
  }
  Event(progress_.report, "virtual drones saved to VDR; files offloaded");

  progress_.report.completed = !abort_requested_;
  progress_.report.flight_time_s = ToSecondsF(clock_->now() - progress_.start);
  progress_.report.battery_used_j =
      battery_.consumed_joules() - progress_.battery_at_start;
  EnterPhase(MissionProgress::Phase::kDone);
  return OkStatus();
}

Status AnDroneSystem::MissionStep(const PlannedRoute& route,
                                  const std::vector<PlannerJob>& jobs) {
  switch (progress_.phase) {
    case MissionProgress::Phase::kTakeoff:
      return StepTakeoff();
    case MissionProgress::Phase::kLeg:
      return StepLeg(route, jobs);
    case MissionProgress::Phase::kDwell:
      return StepDwell(route, jobs);
    case MissionProgress::Phase::kRtl:
      return StepRtl();
    default:
      return FailedPreconditionError("no mission in flight");
  }
}

StatusOr<FlightExecutionReport> AnDroneSystem::DriveMission(
    const PlannedRoute& route, const std::vector<PlannerJob>& jobs) {
  while (progress_.phase != MissionProgress::Phase::kDone) {
    RETURN_IF_ERROR(MissionStep(route, jobs));
  }
  return progress_.report;
}

StatusOr<FlightExecutionReport> AnDroneSystem::ExecuteRoute(
    const PlannedRoute& route, const std::vector<PlannerJob>& jobs) {
  if (!booted_) {
    return FailedPreconditionError("boot the drone first");
  }
  progress_ = MissionProgress{};
  progress_.phase = MissionProgress::Phase::kTakeoff;
  progress_.battery_at_start = battery_.consumed_joules();
  progress_.start = clock_->now();
  pending_ends_.clear();
  abort_requested_ = false;
  abort_reason_.clear();
  return DriveMission(route, jobs);
}

StatusOr<FlightExecutionReport> AnDroneSystem::ResumeRoute(
    const PlannedRoute& route, const std::vector<PlannerJob>& jobs) {
  if (!booted_) {
    return FailedPreconditionError("boot the drone first");
  }
  if (!progress_.InFlight()) {
    return FailedPreconditionError("no interrupted mission to resume");
  }
  return DriveMission(route, jobs);
}

void AnDroneSystem::RequestAbort(const std::string& reason) {
  abort_requested_ = true;
  abort_reason_ = reason;
  ALOG(kWarning, "drone") << "flight abort requested: " << reason;
}

// --- Checkpoint/restore (DESIGN.md §13) ---

template <class Ar>
Status MissionProgress::Visit(Ar& ar) {
  ar.Section("MISN");
  ar.Enum(phase, Phase::kDone);
  ar.U64(stop_index);
  ar.I64(phase_deadline);
  ar.Bool(entered);
  ar.Bool(saw_override);
  ar.Bool(report.completed);
  ar.Seq(report.events, [&](std::string& event) { ar.Str(event); });
  ar.F64(report.flight_time_s);
  ar.F64(report.battery_used_j);
  ar.U64(report.waypoints_visited);
  ar.F64(battery_at_start);
  ar.I64(start);
  return ar.status();
}

template <class Ar>
Status AnDroneSystem::Visit(Ar& ar) {
  if (Ar::kLoading && !booted_) {
    return FailedPreconditionError("boot the drone before restoring");
  }
  ar.Section("SYS ");
  RETURN_IF_ERROR(battery_.Visit(ar));
  ar.Bool(abort_requested_);
  ar.Str(abort_reason_);
  ar.Seq(pending_ends_, [&](TenancyEnd& end) {
    ar.Str(end.vdrone_id);
    ar.Enum(end.reason, TenancyEndReason::kInterrupted);
  });
  ar.Bool(accounting_running_);
  bool accounting_pending =
      ar.Timer("sys.accounting", accounting_event_,
               [this](SimTime when) { ArmAccounting(when); });
  ar.Bool(accounting_pending);
  RETURN_IF_ERROR(progress_.Visit(ar));

  // Hardware truth + noise streams.
  RETURN_IF_ERROR(physics_->Visit(ar));
  RETURN_IF_ERROR(gps_->Visit(ar));
  imu_->checkpoint_rng().Visit(ar);
  baro_->checkpoint_rng().Visit(ar);
  mag_->checkpoint_rng().Visit(ar);
  RETURN_IF_ERROR(microphone_->Visit(ar));
  RETURN_IF_ERROR(speaker_->Visit(ar));
  RETURN_IF_ERROR(motors_->Visit(ar));
  RETURN_IF_ERROR(gimbal_->Visit(ar));
  if (ar.Present(device_stack_.sensor_hub != nullptr, "sensor-hub")) {
    RETURN_IF_ERROR(device_stack_.sensor_hub->Visit(ar));
  }
  if (ar.Present(sensor_fault_injector_ != nullptr, "sensor-fault")) {
    RETURN_IF_ERROR(sensor_fault_injector_->Visit(ar));
  }
  // Boot always builds the sampler; its presence byte still refuses a
  // blob that lacks it.
  if (ar.Present(latency_sampler_ != nullptr, "latency-sampler")) {
    latency_sampler_->checkpoint_rng().Visit(ar);
  }

  // Flight stack + links + tenancy.
  RETURN_IF_ERROR(flight_controller_->Visit(ar));
  RETURN_IF_ERROR(planner_sender_->Visit(ar));
  RETURN_IF_ERROR(proxy_->Visit(ar));
  RETURN_IF_ERROR(vdc_->Visit(ar));

  // OS substrate counters (the tables themselves are rebuilt by the
  // restoring world's deterministic boot).
  RETURN_IF_ERROR(binder_.Visit(ar));
  return runtime_->Visit(ar);
}

template Status AnDroneSystem::Visit(SaveArchive&);
template Status AnDroneSystem::Visit(LoadArchive&);

void AnDroneSystem::SaveState(SnapshotWriter& w, TimerRegistry& timers) const {
  SaveArchive ar(w, timers, *clock_);
  (void)const_cast<AnDroneSystem*>(this)->Visit(ar);
}

Status AnDroneSystem::RestoreState(SnapshotReader& r) {
  restored_timers_ = TimerRearmer();
  LoadArchive ar(r, restored_timers_);
  return Visit(ar);
}

void AnDroneSystem::RegisterTimers(TimerRearmer& rearmer) {
  rearmer = std::exchange(restored_timers_, TimerRearmer());
}

}  // namespace androne
