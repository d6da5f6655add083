// Per-shard fleet manager for the cloud control plane (DESIGN.md §16). One
// FleetManager is one deterministic discrete-event serving simulation: it
// owns a private SimClock, a Portal + VDR + FlightPlanner (the cloud side),
// an AdmissionController (per-board memory packing), and an OrderLifecycle
// per tenant order, and drives every session assigned to its shard through
// order → plan → admit → board → fly → bill. Stage latencies land in
// microsecond histograms ("latency.order_us" … "latency.session_us") that
// the router merges fleet-wide in shard-index order, so the merged report
// is byte-identical at any router thread count.
//
// Flights come in two fidelities: FlyMode::kModel derives each cohort's
// flight duration and energy from the planner's route model (cheap — the
// thousands-of-sessions sweep), while FlyMode::kFleet additionally flies
// each launched board as a real RunFleetWorld cohort (the tenants' ordered
// waypoints become tenant_placements), cloning worlds from a shared
// WorldTemplateCache and folding the cohort digests into the shard digest.
#ifndef SRC_CTRL_FLEET_MANAGER_H_
#define SRC_CTRL_FLEET_MANAGER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/cloud/billing.h"
#include "src/cloud/energy_model.h"
#include "src/cloud/flight_planner.h"
#include "src/cloud/portal.h"
#include "src/cloud/vdr.h"
#include "src/ctrl/admission.h"
#include "src/ctrl/lifecycle.h"
#include "src/ctrl/load_gen.h"
#include "src/obs/metrics.h"
#include "src/util/sim_clock.h"

namespace androne {

class WorldTemplateCache;

enum class FlyMode : uint8_t {
  kModel = 0,  // Route-model flight times/energies only.
  kFleet = 1,  // Each launched board also flies a RunFleetWorld cohort.
};

const char* FlyModeName(FlyMode mode);

struct FleetManagerConfig {
  int shard = 0;
  uint64_t seed = 1;
  FlyMode fly_mode = FlyMode::kModel;
  AdmissionConfig admission;
  // A board holding at least one admitted order launches when no further
  // order fits or this hold expires — whichever comes first.
  double launch_hold_s = 8;
  // Sim-time cost of restoring a crashed tenant container mid-flight.
  double recovery_delay_s = 2.5;
  // Shared template cache for kFleet cohort worlds (borrowed, may be null;
  // thread-safe, shared across shards like the campaign runner shares it
  // across workers).
  WorldTemplateCache* templates = nullptr;
};

// Terminal outcome of one session — the router's merge unit. Charged and
// refunded amounts are integer microdollars so the digest never rides on
// double formatting.
struct SessionRecord {
  uint64_t id = 0;
  OrderState state = OrderState::kFailed;
  Settlement settlement = Settlement::kNone;
  int64_t charged_ud = 0;
  int64_t refunded_ud = 0;
  SimTime arrival = 0;
  SimTime end = 0;
};

struct ShardOutcome {
  int shard = 0;
  // One record per served session, in session-id order.
  std::vector<SessionRecord> records;
  // FNV chain over |records| (id, state, settlement, amounts, times).
  uint64_t digest = 0;
  // FNV chain over kFleet cohort world digests (0 in kModel mode).
  uint64_t cohort_flight_digest = 0;
  uint64_t admission_violations = 0;
  uint64_t events_run = 0;
  MetricsSnapshot metrics;
};

class FleetManager {
 public:
  explicit FleetManager(const FleetManagerConfig& config);
  ~FleetManager();

  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  // Serves every session to a terminal lifecycle state and returns the
  // shard outcome. Pure function of (config, sessions): repeated calls on
  // fresh managers produce byte-identical outcomes.
  ShardOutcome Serve(const std::vector<SessionSpec>& sessions);

 private:
  struct Session;
  struct BoardRuntime;

  void OnArrival(uint64_t id);
  void OnOrdered(uint64_t id);
  void OnPlanned(uint64_t id);
  void HandleAdmit(uint64_t id, int board);
  void MaybeLaunch(int board, double probe_footprint_mb);
  void LaunchBoard(int board);
  void OnCrash(uint64_t id);
  void OnRecovered(uint64_t id);
  void OnGiveUp(uint64_t id);
  void OnLanded(uint64_t id);
  void OnBilled(uint64_t id);
  void OnCancel(uint64_t id);
  void LeaveBoard(uint64_t id);
  void FlyCohortWorld(int board, const std::vector<uint64_t>& cohort);

  // Applies |event|; an undeclared transition counts as a violation
  // instead of silently mutating state (the property tests prove the
  // serving path never takes this branch).
  void Apply(Session& s, OrderEvent event);
  void Finish(Session& s, OrderEvent event, int64_t charged_ud,
              int64_t refunded_ud);

  Session& Get(uint64_t id);

  // Every session records its stage latencies and its end state. Each of
  // those metrics is resolved in the registry on first use and cached, so
  // a name no session reached never enters the snapshot and later events
  // build no key and walk no map.
  enum Stage { kOrderStage, kPlanStage, kAdmitStage, kFlyStage, kBillStage,
               kSessionStage, kStageCount };
  Histogram& StageLatency(Stage stage);
  double& EndStateCount(OrderState state);

  FleetManagerConfig config_;
  SimClock clock_;
  AppStore app_store_;
  VirtualDroneRepository vdr_;
  EnergyModel energy_model_;
  Billing billing_;
  Portal portal_;
  FlightPlanner planner_;
  AdmissionController admission_;
  MetricsRegistry metrics_;
  std::array<Histogram*, kStageCount> stage_latency_{};
  std::array<double*, kOrderStateCount> end_state_count_{};
  std::map<uint64_t, Session> sessions_;
  std::vector<BoardRuntime> boards_;
  std::vector<SessionRecord> records_;
  uint64_t cohort_flight_digest_ = 0;
  uint64_t lifecycle_violations_ = 0;
  uint64_t cohorts_flown_ = 0;
};

}  // namespace androne

#endif  // SRC_CTRL_FLEET_MANAGER_H_
