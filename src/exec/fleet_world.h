// The canonical world the fleet executor runs: one full AnDrone stack
// (device + flight containers, Binder, physics, MAVProxy, VFCs) flying a
// planned multi-tenant route, with the planner downlink pumped as encoded
// MAVLink bytes through a VPN tunnel over a simulated LTE channel. Each
// world is closed over its own SimClock and derives every random choice
// from WorldContext::seed, so a world's digest depends only on
// (config, seed) — never on which thread ran it.
#ifndef SRC_EXEC_FLEET_WORLD_H_
#define SRC_EXEC_FLEET_WORLD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/container/supervisor.h"
#include "src/exec/fleet_executor.h"
#include "src/hw/sensor_faults.h"
#include "src/net/fault_injector.h"
#include "src/net/link_model.h"
#include "src/snapshot/checkpoint.h"

namespace androne {

class ReplayLogStore;
class TraceRecorder;
class WorldTemplateCache;

// Scripted crash-loop chaos: a payload virtual-drone container is crashed
// |count| times, the first at |start_s| then every |period_s|, while a
// world-owned ContainerSupervisor restarts it with backoff and gives up
// after |max_restarts| consecutive failures. The container is a bystander
// (no tenant runs in it) — the axis exercises supervision and isolation,
// not the flight.
struct CrashLoopConfig {
  int count = 0;  // 0 disables the axis.
  double start_s = 5;
  double period_s = 10;
  int max_restarts = 5;

  bool enabled() const { return count > 0; }
};

// One tenant's explicit waypoint placement for cohort flights (DESIGN.md
// §16): NED offset from the fleet base plus the planner dwell at the stop.
struct TenantPlacement {
  double north_m = 0;
  double east_m = 0;
  double dwell_s = 20;
};

struct FleetWorldConfig {
  // Direct-access tenants deployed per world, each with one waypoint placed
  // pseudo-randomly (from the world seed) around the base.
  int tenants = 2;
  double dwell_s = 20;          // Planner service time per stop.
  double waypoint_spread_m = 120;  // Max NED offset of tenant waypoints.
  // Explicit per-tenant waypoint placements (the control plane's cohort
  // flights, DESIGN.md §16). Empty (the default) keeps the seed-drawn
  // scatter above; when non-empty the size must equal |tenants| and tenant
  // i flies to placements[i] with placements[i].dwell_s, so a shard fleet
  // manager can fly the waypoints its tenants actually ordered.
  std::vector<TenantPlacement> tenant_placements;
  int annealing_iterations = 600;  // Planner effort (sec66 uses 4000).
  // Coalesce planner downlink telemetry into batched datagrams with the
  // MavProxy defaults (DESIGN.md §10). A transport model: it moves the
  // downlink counters and the world digest, never the flight digest.
  bool batch_telemetry = true;
  // 0 = board default (admits 3 virtual drones, per paper Figure 12);
  // tenant sweeps past 3 raise it to model a larger cloud host.
  double memory_budget_mb = 0;
  // Structured tracing (DESIGN.md §11): OR of kTrace* category bits; 0
  // runs the world untraced (the production default — every site then
  // costs one branch). When nonzero the world owns a private
  // TraceRecorder and returns its text export in WorldResult::trace_text.
  uint32_t trace_categories = 0;
  size_t trace_capacity = 1 << 14;  // Ring slots per traced world.
  // Caller-owned recorder for single-world runs (benches exporting Chrome
  // JSON). When set it overrides trace_categories/trace_capacity, the world
  // binds it to its clock, and the caller does its own exports. Never share
  // one recorder across concurrent worlds — recorders are not thread-safe.
  TraceRecorder* trace = nullptr;

  // --- Chaos axes (the scenario DSL's fault surface) ---
  // Which link regime carries the planner downlink.
  LinkProfile downlink_profile = LinkProfile::kCellularLte;
  // Scripted network faults applied to the downlink (forward direction).
  // Borrowed; must outlive the run. nullptr = no network chaos.
  const FaultPlan* net_faults = nullptr;
  // Scripted sensor faults applied to every flight-stack sensor read.
  // Borrowed; must outlive the run. nullptr = no sensor chaos.
  const SensorFaultPlan* sensor_faults = nullptr;
  // Crash-loop chaos on a payload container (see CrashLoopConfig).
  CrashLoopConfig crash_loop;
  // --- Checkpoint/restore + crash recovery (DESIGN.md §13) ---
  // When the world captures checkpoints of its complete state. Disabled by
  // default (captures are pure reads of world state, but plain benches
  // shouldn't pay for serialization they never restore from).
  CheckpointPolicy checkpoint{/*period_s=*/0, /*at_phase_boundaries=*/false};
  // The crash fault family: at each listed sim-time (seconds) the world
  // process dies mid-flight — the mission driver stops at the next 100 ms
  // chunk boundary and the recovery loop rebuilds the world, restores the
  // latest checkpoint, and replays (or replays from boot when no
  // checkpoint exists yet). The recovered world's digest, trace, and
  // metrics are bit-identical to the uninterrupted run at the same seed.
  // Crashes land only while the mission driver is pumping (checkpoints and
  // crash detection both live in the mission pulse).
  std::vector<double> crash_at_s;
  // The restore budget: the world gives up (recovery.gave_up, completed =
  // false) at the first crash past this many.
  int max_restores = 3;
  // Deploy rejections (memory admission) become the tenants_rejected
  // counter instead of failing the world — the memory-pressure scenarios
  // assert on the admitted/rejected split (paper Figure 12), so a rejected
  // tenant is data, not an error.
  bool tolerate_deploy_rejection = false;

  // --- Boot-once/fork-many world cloning (DESIGN.md §14) ---
  // Shared template cache (borrowed, may be null; must outlive the run).
  // When set, the first world per boot-fingerprint cold-boots the stack,
  // snapshots it at the post-boot/pre-deploy boundary, and publishes the
  // blob; every later world with the same fingerprint restores from the
  // blob instead of re-running boot + sensor warmup. Per-world RNG streams
  // are re-seeded from WorldContext::seed at that boundary on BOTH paths,
  // so a cloned world is digest-identical to a cold-booted one.
  WorldTemplateCache* templates = nullptr;

  // --- Record-once replay engine (DESIGN.md §15) ---
  // Record: each world serializes its continuous flight plane (per-tick
  // estimator outputs + ground truth + wake latency), the planned route,
  // and an expected-outcome footer into this store, keyed by the world's
  // own seed. Borrowed, thread-safe, must outlive the run.
  ReplayLogStore* record_into = nullptr;
  // Replay: each world loads its log by seed and runs the fast path —
  // sensor synthesis, estimator filtering, the PID cascade, physics
  // integration, and planner annealing are all skipped; the discrete layer
  // re-executes live and the result is asserted bit-identical via the
  // footer (WorldResult::Replay::digest_match). A missing log or a
  // seed/fingerprint mismatch is an infrastructure failure. Both stores
  // may be set at once (record-during-replay reproduces the log bytes —
  // the fixed-point property). Incompatible with crash_at_s: a recovery
  // loop re-runs ticks, which would duplicate or desynchronize the log.
  const ReplayLogStore* replay_from = nullptr;
  // Fork-and-explore: restore this checkpoint blob (borrowed; captured by
  // an earlier run of the SAME config + seed) on top of the freshly built
  // world and resume the mission from it. fork_reseed != 0 re-seeds every
  // RNG stream at the fork point for a divergent what-if branch; 0 keeps
  // the original streams, making the continuation bit-identical to the
  // recorded run's tail (the control branch).
  const std::string* fork_blob = nullptr;
  uint64_t fork_reseed = 0;
  // Caller-owned checkpoint store. When set, checkpoints persist here (so
  // fork-and-explore can harvest decision-point blobs after the run)
  // instead of a run-local store. Borrowed; must outlive the run.
  CheckpointStore* checkpoint_sink = nullptr;
};

// Runs one world to completion (or early abort on fleet cancellation) and
// returns its result: events_run from the world SimClock, a digest mixing
// the flight log with the downlink latency histogram, per-world counters
// (waypoints, battery, downlink frames/bytes), and the metrics snapshot,
// which carries the downlink latency histogram "downlink_latency_us".
WorldResult RunFleetWorld(const FleetWorldConfig& config,
                          const WorldContext& ctx);

// Builds the world for (config, ctx) and overlays checkpoint |blob| on it
// without flying: the restore half of crash recovery, for checking that a
// blob from an untrusted store restores (or is rejected with a Status).
Status VerifyFleetCheckpoint(const FleetWorldConfig& config,
                             const WorldContext& ctx, const std::string& blob);

// The two config fingerprints (DESIGN.md §14), both derived from one
// tagged walk over every FleetWorldConfig field (VisitConfig in
// fleet_world.cc). TemplateFingerprint folds only boot fields and keys the
// world template cache; ConfigFingerprint folds boot and world fields and
// binds checkpoints and replay logs to the world that wrote them.
// Runtime-only fields — trace, templates, record_into, replay_from,
// fork_blob, fork_reseed, checkpoint_sink, checkpoint, restore — feed
// neither.
uint64_t TemplateFingerprint(const FleetWorldConfig& config);
uint64_t ConfigFingerprint(const FleetWorldConfig& config);

// Convenience adapter for FleetExecutor::Run.
WorldFn MakeFleetWorld(const FleetWorldConfig& config = {});

}  // namespace androne

#endif  // SRC_EXEC_FLEET_WORLD_H_
