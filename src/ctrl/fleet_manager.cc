#include "src/ctrl/fleet_manager.h"

#include <algorithm>
#include <cmath>

#include "src/exec/fleet_world.h"
#include "src/net/link_model.h"
#include "src/util/bytes.h"
#include "src/util/geo.h"
#include "src/util/rng.h"

namespace androne {
namespace {

// The fleet's launch base — same coordinates the exec-layer worlds use, so
// kFleet cohort placements and kModel route estimates share a frame.
const GeoPoint kCtrlBase{43.6084298, -85.8110359, 0};

int64_t Microdollars(double dollars) {
  return static_cast<int64_t>(std::llround(dollars * 1e6));
}

}  // namespace

const char* FlyModeName(FlyMode mode) {
  switch (mode) {
    case FlyMode::kModel:
      return "model";
    case FlyMode::kFleet:
      return "fleet";
  }
  return "?";
}

// Per-session serving state. The Rng is a fresh SplitMix64 derivation of
// the session seed (the load generator already consumed the raw seed's
// stream), and every draw happens in handler order on the shard's single
// event loop, so the stream is deterministic.
struct FleetManager::Session {
  SessionSpec spec;
  OrderLifecycle lifecycle;
  Rng rng{1};
  SimTime arrival = 0;
  SimTime order_done = 0;
  SimTime plan_done = 0;
  SimTime launch_time = 0;
  SimTime land_time = 0;
  SimTime end = 0;
  double flight_time_s = 0;
  double flight_energy_j = 0;
  double billable_energy_j = 0;
  double estimate_cost = 0;  // Pre-paid bound; the refund basis.
  bool plan_failed = false;
  int board = -1;
  bool on_board = false;  // Launched and still occupying the board.
  int64_t charged_ud = 0;
  int64_t refunded_ud = 0;
  EventId pending = 0;       // The session's next scheduled stage event.
  EventId cancel_event = 0;  // Armed tenant cancellation, if any.
};

struct FleetManager::BoardRuntime {
  std::vector<uint64_t> boarding;  // Admitted, not yet launched.
  std::vector<uint64_t> cohort;    // Launched, still flying.
  EventId hold_timer = 0;
  bool flying = false;
};

FleetManager::FleetManager(const FleetManagerConfig& config)
    : config_(config),
      portal_(&app_store_, &vdr_, energy_model_, billing_),
      planner_(energy_model_,
               [] {
                 PlannerConfig pc;
                 pc.depot = kCtrlBase;
                 return pc;
               }()),
      admission_(config.admission) {
  boards_.resize(admission_.boards());
}

FleetManager::~FleetManager() = default;

FleetManager::Session& FleetManager::Get(uint64_t id) {
  return sessions_.at(id);
}

Histogram& FleetManager::StageLatency(Stage stage) {
  struct Layout {
    const char* name;
    int decades;  // Of microseconds, at 10 buckets per decade.
  };
  // Admission waits, flights and whole sessions can outrun the default 8
  // decades (100 s), so they get 12.
  static constexpr Layout kLayouts[kStageCount] = {
      {"latency.order_us", 8}, {"latency.plan_us", 8},
      {"latency.admit_us", 12}, {"latency.fly_us", 12},
      {"latency.bill_us", 8},  {"latency.session_us", 12},
  };
  Histogram*& hist = stage_latency_[stage];
  if (hist == nullptr) {
    hist = &metrics_.Hist(kLayouts[stage].name, 10, kLayouts[stage].decades);
  }
  return *hist;
}

double& FleetManager::EndStateCount(OrderState state) {
  double*& count = end_state_count_[static_cast<size_t>(state)];
  if (count == nullptr) {
    count = &metrics_.Counter(std::string("ctrl.") + OrderStateName(state));
  }
  return *count;
}

void FleetManager::Apply(Session& s, OrderEvent event) {
  Status status = s.lifecycle.Apply(event);
  if (!status.ok()) {
    // The serving path must never take an undeclared transition; counting
    // (instead of crashing) keeps the sweep alive and trips the CI gate.
    ++lifecycle_violations_;
    metrics_.Add("ctrl.lifecycle_violations");
  }
}

void FleetManager::Finish(Session& s, OrderEvent event, int64_t charged_ud,
                          int64_t refunded_ud) {
  Apply(s, event);
  s.end = clock_.now();
  s.charged_ud = charged_ud;
  s.refunded_ud = refunded_ud;
  if (s.cancel_event != 0) {
    clock_.Cancel(s.cancel_event);
    s.cancel_event = 0;
  }
  StageLatency(kSessionStage).Record(ToMicros(s.end - s.arrival));
  EndStateCount(s.lifecycle.state()) += 1;
}

ShardOutcome FleetManager::Serve(const std::vector<SessionSpec>& specs) {
  for (const SessionSpec& spec : specs) {
    Session& s = sessions_[spec.id];
    s.spec = spec;
    s.rng = Rng(SplitMix64(spec.seed ^ 0x5e1f5e1f5e1f5e1full));
    const uint64_t id = spec.id;
    clock_.ScheduleAt(spec.arrival, [this, id] { OnArrival(id); });
  }
  clock_.RunAll();

  // Safety net: a session the event loop left live (impossible under the
  // declared flow) is drained as a cancellation so every record is
  // terminal; the counter makes the leak visible.
  for (auto& [id, s] : sessions_) {
    if (!s.lifecycle.terminal()) {
      metrics_.Add("ctrl.drained_at_shutdown");
      Finish(s, OrderEvent::kCancel, 0, Microdollars(s.estimate_cost));
    }
  }

  ShardOutcome outcome;
  outcome.shard = config_.shard;
  outcome.records.reserve(sessions_.size());
  uint64_t digest = kFnv1a64Offset;
  for (const auto& [id, s] : sessions_) {
    SessionRecord record;
    record.id = id;
    record.state = s.lifecycle.state();
    record.settlement = s.lifecycle.settlement();
    record.charged_ud = s.charged_ud;
    record.refunded_ud = s.refunded_ud;
    record.arrival = s.arrival;
    record.end = s.end;
    digest = Fnv1a64Value(record.id, digest);
    digest = Fnv1a64Value(static_cast<uint64_t>(record.state), digest);
    digest = Fnv1a64Value(static_cast<uint64_t>(record.settlement), digest);
    digest = Fnv1a64Value(record.charged_ud, digest);
    digest = Fnv1a64Value(record.refunded_ud, digest);
    digest = Fnv1a64Value(ToMicros(record.arrival), digest);
    digest = Fnv1a64Value(ToMicros(record.end), digest);
    outcome.records.push_back(record);
  }
  metrics_.Add("ctrl.sessions", static_cast<double>(sessions_.size()));
  metrics_.Add("ctrl.admitted", static_cast<double>(admission_.admitted_total()));
  metrics_.Add("ctrl.queued", static_cast<double>(admission_.queued_total()));
  metrics_.Add("ctrl.admission_rejected",
               static_cast<double>(admission_.rejected_total()));
  metrics_.Add("ctrl.admission_violations",
               static_cast<double>(admission_.violations()));
  metrics_.Add("ctrl.cohort_worlds", static_cast<double>(cohorts_flown_));
  outcome.digest = digest;
  outcome.cohort_flight_digest = cohort_flight_digest_;
  outcome.admission_violations = admission_.violations() + lifecycle_violations_;
  outcome.events_run = clock_.events_run();
  outcome.metrics = metrics_.Snapshot();
  return outcome;
}

void FleetManager::OnArrival(uint64_t id) {
  Session& s = Get(id);
  s.arrival = clock_.now();
  if (s.spec.cancels) {
    s.cancel_event = clock_.ScheduleAfter(
        SecondsF(s.spec.cancel_after_s), [this, id] { OnCancel(id); });
  }
  // Order stage: tenant request uplink over LTE, portal service time,
  // confirmation downlink.
  CellularLteModel lte;
  const SimDuration order_latency = lte.SampleLatency(s.rng) +
                                    Millis(8) +
                                    SecondsF(s.rng.Exponential(0.004)) +
                                    lte.SampleLatency(s.rng);
  s.pending = clock_.ScheduleAfter(order_latency, [this, id] { OnOrdered(id); });
}

void FleetManager::OnOrdered(uint64_t id) {
  Session& s = Get(id);
  if (s.lifecycle.terminal()) {
    return;
  }
  s.order_done = clock_.now();
  StageLatency(kOrderStage).Record(ToMicros(s.order_done - s.arrival));

  OrderRequest request;
  request.user = "tenant-" + std::to_string(id);
  for (int j = 0; j < s.spec.waypoints; ++j) {
    const double north = s.spec.north_m + s.rng.Uniform(-60, 60);
    const double east = s.spec.east_m + s.rng.Uniform(-60, 60);
    request.waypoints.push_back(
        WaypointSpec{FromNed(kCtrlBase, NedPoint{north, east, -15}), 0});
  }
  request.max_duration_s = 600;
  request.max_billing_dollars = s.spec.max_dollars;
  request.extra_waypoint_devices = {"camera"};
  request.extra_continuous_devices = {"gps"};
  StatusOr<OrderConfirmation> confirmation =
      portal_.OrderVirtualDrone(request);
  if (!confirmation.ok()) {
    // Validation failure ends the session at the order stage; nothing was
    // pre-paid yet, so the refund is zero.
    Finish(s, OrderEvent::kPlanFail, 0, 0);
    return;
  }
  s.estimate_cost = confirmation->estimate.total_cost;

  // Plan the flight with the route model: one job per ordered waypoint,
  // service energy proportional to dwell (the exec-layer convention).
  std::vector<PlannerJob> jobs;
  std::vector<size_t> order;
  for (size_t j = 0; j < confirmation->definition.waypoints.size(); ++j) {
    PlannerJob job;
    job.vdrone_id = static_cast<int>(id);
    job.vdrone_ref = confirmation->vdrone_id;
    job.waypoint_index = static_cast<int>(j);
    job.waypoint = confirmation->definition.waypoints[j].point;
    job.service_energy_j = 170.0 * s.spec.dwell_s;
    job.service_time_s = s.spec.dwell_s;
    jobs.push_back(job);
    order.push_back(j);
  }
  s.flight_energy_j = planner_.RouteEnergyJ(jobs, order);
  s.flight_time_s = planner_.RouteTimeS(jobs, order);
  s.billable_energy_j =
      std::min(s.flight_energy_j, confirmation->definition.energy_allotted_j);
  const PlannerConfig planner_defaults;
  s.plan_failed = s.flight_energy_j > planner_defaults.battery_capacity_j *
                                          (1 - kEnergyReserveFraction);

  const SimDuration plan_latency =
      Millis(30) + Micros(1500 * s.spec.waypoints) +
      SecondsF(s.rng.Exponential(0.010));
  s.pending = clock_.ScheduleAfter(plan_latency, [this, id] { OnPlanned(id); });
}

void FleetManager::OnPlanned(uint64_t id) {
  Session& s = Get(id);
  if (s.lifecycle.terminal()) {
    return;
  }
  s.plan_done = clock_.now();
  StageLatency(kPlanStage).Record(ToMicros(s.plan_done - s.order_done));
  if (s.plan_failed) {
    Finish(s, OrderEvent::kPlanFail, 0, Microdollars(s.estimate_cost));
    return;
  }
  Apply(s, OrderEvent::kPlanReady);

  const AdmitResult result = admission_.Request(id, s.spec.footprint_mb);
  switch (result.outcome) {
    case AdmitOutcome::kAdmitted:
      Apply(s, OrderEvent::kAdmit);
      HandleAdmit(id, result.board);
      break;
    case AdmitOutcome::kQueued:
      Apply(s, OrderEvent::kQueue);
      break;
    case AdmitOutcome::kRejected:
      Finish(s, OrderEvent::kReject, 0, Microdollars(s.estimate_cost));
      break;
  }
}

void FleetManager::HandleAdmit(uint64_t id, int board) {
  Session& s = Get(id);
  s.board = board;
  StageLatency(kAdmitStage).Record(ToMicros(clock_.now() - s.plan_done));
  BoardRuntime& b = boards_[board];
  b.boarding.push_back(id);
  if (b.hold_timer == 0) {
    b.hold_timer = clock_.ScheduleAfter(SecondsF(config_.launch_hold_s),
                                        [this, board] { LaunchBoard(board); });
  }
  MaybeLaunch(board, s.spec.footprint_mb);
}

void FleetManager::MaybeLaunch(int board, double probe_footprint_mb) {
  if (admission_.BoardFull(board, probe_footprint_mb)) {
    LaunchBoard(board);
  }
}

void FleetManager::LaunchBoard(int board) {
  BoardRuntime& b = boards_[board];
  if (b.hold_timer != 0) {
    clock_.Cancel(b.hold_timer);
    b.hold_timer = 0;
  }
  if (b.flying || b.boarding.empty()) {
    return;
  }
  admission_.Launch(board);
  b.flying = true;
  b.cohort = b.boarding;
  b.boarding.clear();
  metrics_.Add("ctrl.boards_launched");
  for (uint64_t id : b.cohort) {
    Session& s = Get(id);
    Apply(s, OrderEvent::kLaunch);
    s.on_board = true;
    s.launch_time = clock_.now();
    if (s.spec.crashes && s.spec.crash_after_s < s.flight_time_s) {
      s.pending = clock_.ScheduleAfter(SecondsF(s.spec.crash_after_s),
                                       [this, id] { OnCrash(id); });
    } else {
      s.pending = clock_.ScheduleAfter(SecondsF(s.flight_time_s),
                                       [this, id] { OnLanded(id); });
    }
  }
  if (config_.fly_mode == FlyMode::kFleet) {
    FlyCohortWorld(board, b.cohort);
  }
}

void FleetManager::FlyCohortWorld(int board,
                                  const std::vector<uint64_t>& cohort) {
  FleetWorldConfig cfg;
  cfg.tenants = static_cast<int>(cohort.size());
  // Cohort worlds fly the tenants' actual ordered placements. The exec
  // layer raises the board budget automatically only up to 3 tenants, so
  // mirror the shard's own budget.
  cfg.memory_budget_mb = admission_.board_budget_mb();
  for (uint64_t id : cohort) {
    const Session& s = Get(id);
    cfg.tenant_placements.push_back(
        TenantPlacement{s.spec.north_m, s.spec.east_m, s.spec.dwell_s});
  }
  cfg.annealing_iterations = 300;
  cfg.templates = config_.templates;
  WorldContext ctx;
  ctx.index = config_.shard;
  ctx.seed = SplitMix64(config_.seed ^ (0xc0804700000000ull + cohorts_flown_));
  WorldResult result = RunFleetWorld(cfg, ctx);
  ++cohorts_flown_;
  cohort_flight_digest_ = Fnv1a64Value(result.digest, cohort_flight_digest_);
  cohort_flight_digest_ =
      Fnv1a64Value(result.flight_digest, cohort_flight_digest_);
  metrics_.Add("ctrl.cohort_events", static_cast<double>(result.events_run));
  if (!result.completed) {
    metrics_.Add("ctrl.cohort_incomplete");
  }
  (void)board;
}

void FleetManager::OnCrash(uint64_t id) {
  Session& s = Get(id);
  if (s.lifecycle.terminal()) {
    return;
  }
  Apply(s, OrderEvent::kCrash);
  metrics_.Add("ctrl.crashes");
  if (s.spec.gives_up) {
    s.pending = clock_.ScheduleAfter(SecondsF(config_.recovery_delay_s),
                                     [this, id] { OnGiveUp(id); });
  } else {
    s.pending = clock_.ScheduleAfter(SecondsF(config_.recovery_delay_s),
                                     [this, id] { OnRecovered(id); });
  }
}

void FleetManager::OnRecovered(uint64_t id) {
  Session& s = Get(id);
  if (s.lifecycle.terminal()) {
    return;
  }
  Apply(s, OrderEvent::kRecover);
  metrics_.Add("ctrl.recoveries");
  const double remaining_s = s.flight_time_s - s.spec.crash_after_s;
  s.pending = clock_.ScheduleAfter(SecondsF(remaining_s),
                                   [this, id] { OnLanded(id); });
}

void FleetManager::OnGiveUp(uint64_t id) {
  Session& s = Get(id);
  if (s.lifecycle.terminal()) {
    return;
  }
  metrics_.Add("ctrl.giveups");
  Finish(s, OrderEvent::kGiveUp, 0, Microdollars(s.estimate_cost));
  LeaveBoard(id);
}

void FleetManager::OnLanded(uint64_t id) {
  Session& s = Get(id);
  if (s.lifecycle.terminal()) {
    return;
  }
  s.land_time = clock_.now();
  StageLatency(kFlyStage).Record(ToMicros(s.land_time - s.launch_time));
  LeaveBoard(id);
  CellularLteModel lte;
  const SimDuration bill_latency = Millis(4) +
                                   SecondsF(s.rng.Exponential(0.002)) +
                                   lte.SampleLatency(s.rng);
  s.pending = clock_.ScheduleAfter(bill_latency, [this, id] { OnBilled(id); });
}

void FleetManager::OnBilled(uint64_t id) {
  Session& s = Get(id);
  if (s.lifecycle.terminal()) {
    return;
  }
  StageLatency(kBillStage).Record(ToMicros(clock_.now() - s.land_time));
  Finish(s, OrderEvent::kComplete,
         Microdollars(billing_.CostForEnergy(s.billable_energy_j)), 0);
}

void FleetManager::OnCancel(uint64_t id) {
  Session& s = Get(id);
  s.cancel_event = 0;
  if (s.lifecycle.terminal()) {
    return;
  }
  if (s.pending != 0) {
    clock_.Cancel(s.pending);
    s.pending = 0;
  }
  const bool was_on_board = s.on_board;
  Finish(s, OrderEvent::kCancel, 0, Microdollars(s.estimate_cost));
  // Free whatever the order held: a queue slot, a boarding slot, or (after
  // launch) its place in the flying cohort.
  if (s.board >= 0 && !was_on_board) {
    BoardRuntime& b = boards_[s.board];
    auto it = std::find(b.boarding.begin(), b.boarding.end(), id);
    if (it != b.boarding.end()) {
      b.boarding.erase(it);
    }
  }
  const std::vector<DrainedAdmit> drained = admission_.Remove(id);
  for (const DrainedAdmit& admit : drained) {
    Session& q = Get(admit.order);
    Apply(q, OrderEvent::kAdmit);
    HandleAdmit(admit.order, admit.board);
  }
  if (was_on_board) {
    LeaveBoard(id);
  }
}

void FleetManager::LeaveBoard(uint64_t id) {
  Session& s = Get(id);
  if (!s.on_board || s.board < 0) {
    return;
  }
  s.on_board = false;
  BoardRuntime& b = boards_[s.board];
  auto it = std::find(b.cohort.begin(), b.cohort.end(), id);
  if (it != b.cohort.end()) {
    b.cohort.erase(it);
  }
  if (b.cohort.empty() && b.flying) {
    b.flying = false;
    const int board = s.board;
    const std::vector<DrainedAdmit> drained = admission_.ReleaseBoard(board);
    metrics_.Add("ctrl.boards_released");
    for (const DrainedAdmit& admit : drained) {
      Session& q = Get(admit.order);
      Apply(q, OrderEvent::kAdmit);
      HandleAdmit(admit.order, admit.board);
    }
  }
}

}  // namespace androne
