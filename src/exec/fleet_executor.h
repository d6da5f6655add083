// FleetExecutor: runs N independent simulation worlds on a fixed set of plain
// worker threads. AnDrone's single-drone stack is deterministic on one
// SimClock; fleets of device+virtual-drone worlds are embarrassingly parallel
// (cf. ArduPilot SITL farms and batched RL simulators), so the executor's job
// is purely (a) distributing whole worlds to workers, (b) guaranteeing that
// per-world results are bit-identical regardless of thread count, and
// (c) merging per-world metric snapshots into one fleet report.
//
// Determinism contract:
//   - every world receives a seed derived only from (base_seed, world index)
//     via SplitMix64, never from scheduling order or thread identity;
//   - a world owns its entire stack — SimClock, RNGs, containers, flight
//     stack — and shares nothing mutable with other worlds;
//   - the merge stage folds results in world-index order after all worlds
//     finish, so merged metrics and the fleet digest are thread-count
//     invariant too.
#ifndef SRC_EXEC_FLEET_EXECUTOR_H_
#define SRC_EXEC_FLEET_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace androne {

// Everything a world function receives. Worlds must derive all randomness
// from |seed| and poll |cancelled| at convenient boundaries (e.g. a periodic
// sim-clock event) to honor the fleet's wall-clock budget.
struct WorldContext {
  int index = 0;
  uint64_t seed = 0;
  const std::atomic<bool>* cancelled = nullptr;

  bool ShouldCancel() const {
    return cancelled != nullptr && cancelled->load(std::memory_order_relaxed);
  }
};

// What a world hands back. Everything that merges fleet-wide lives in
// |metrics|; |counters| is the world's own name -> value scrape.
struct WorldResult {
  int index = 0;
  uint64_t seed = 0;
  // False when the world was skipped (budget exhausted before start) or
  // bailed out early on cancellation.
  bool completed = false;
  // True only for budget-skipped worlds that never ran; distinguishes them
  // from worlds that started and cancelled mid-flight (both have
  // completed == false, but a skipped world produced no data at all).
  bool skipped = false;
  // True when the world failed to come up at all — boot, chaos-payload
  // start, a non-tolerated deploy rejection, a planner failure, or a
  // checkpoint that would not restore. Infrastructure failures are not
  // scenario outcomes: the executor retries such worlds once (with a short
  // wall-clock backoff) and counts the retry in "fleet.worlds_retried"
  // instead of folding the world into the skipped bucket.
  bool infra_failure = false;
  // Crash-recovery bookkeeping (DESIGN.md §13). Deliberately kept out of
  // |counters|, |metrics|, and both digests: a crashed-and-recovered world
  // must be bit-identical to its uninterrupted twin everywhere that merges
  // or digests, so recovery telemetry rides in this side struct only.
  struct Recovery {
    int crashes = 0;            // Scheduled crash events that landed.
    int restores = 0;           // Checkpoint restores performed.
    int replays_from_boot = 0;  // Crashes recovered with no checkpoint yet.
    int checkpoints_saved = 0;  // Checkpoints captured across all attempts.
    uint64_t checkpoint_bytes = 0;  // Size of the latest checkpoint blob.
    bool fixed_point_ok = true;     // save→restore→save byte equality held.
    bool gave_up = false;           // Restore budget exhausted; world down.
  };
  Recovery recovery;
  // Boot-provisioning bookkeeping (DESIGN.md §14). Same discipline as
  // |Recovery|: wall-clock timings and template-placement attribution are
  // scheduling-dependent, so they ride in a side struct that is excluded
  // from |counters|, |metrics|, and both digests. The deterministic
  // aggregate (template hits/misses per fleet) is published by the caller
  // that owns the WorldTemplateCache, not per world.
  struct Provision {
    bool cloned = false;       // Restored from a world template blob.
    bool built_template = false;  // This world cold-booted + published it.
    uint64_t boot_ns = 0;      // Wall time to a deployed, mission-ready world.
    uint64_t fly_ns = 0;       // Wall time spent flying the mission.
  };
  Provision provision;
  // Record/replay bookkeeping (DESIGN.md §15). Same discipline as
  // |Recovery| and |Provision|: a replayed world must be bit-identical to
  // the run that recorded it everywhere that merges or digests, so replay
  // telemetry (log sizes, tick counts, the digest-match verdict) rides in
  // this side struct only.
  struct Replay {
    bool recorded = false;   // This run produced a replay log.
    bool replayed = false;   // This run was driven from a replay log.
    // Replay only: digest, flight digest, metrics digest, trace hash, and
    // completion all matched the recording run's footer.
    bool digest_match = false;
    uint64_t log_bytes = 0;
    uint64_t ticks = 0;       // Ticks recorded (record) / installed (replay).
    uint64_t underruns = 0;   // Replay ticks the log ran dry (live fallback).
  };
  Replay replay;
  // Scenario identity and per-assertion failures, filled by campaign runs
  // (empty for plain fleet benches). Assertions are canonical expression
  // strings — triage buckets key on them.
  std::string scenario;
  std::vector<std::string> failed_assertions;
  uint64_t events_run = 0;  // SimClock events the world executed.
  uint64_t digest = 0;      // World-defined determinism digest.
  // Digest of the physical flight alone (attitude log), excluding transport
  // counters: telemetry batching repacks datagrams, which legitimately moves
  // |digest|, but must never move the flight itself.
  uint64_t flight_digest = 0;
  std::map<std::string, double> counters;
  // Structured per-world metrics (DESIGN.md §11); empty unless the world
  // filled a MetricsRegistry. Merged fleet-wide in index order.
  MetricsSnapshot metrics;
  // Deterministic text export of the world's trace ring; empty when the
  // world ran with tracing off.
  std::string trace_text;
};

using WorldFn = std::function<WorldResult(const WorldContext&)>;

// The merged fleet outcome. |worlds| is always indexed 0..n-1 in world
// order, independent of completion order.
struct FleetReport {
  std::vector<WorldResult> worlds;
  int completed = 0;
  int cancelled = 0;  // Skipped or early-exited worlds.
  // Subset of |cancelled| that never ran at all (budget spent before their
  // turn). Also published as the "fleet.worlds_skipped" counter in
  // |metrics| so downstream consumers can't conflate "ran 200 worlds" with
  // "ran 120 and silently dropped 80".
  int skipped = 0;
  // Worlds that reported an infrastructure failure and were re-run once.
  // Also published as the "fleet.worlds_retried" counter in |metrics|.
  int retried = 0;
  // Provisioning rollup across |worlds| (from the Provision side structs;
  // wall-clock, excluded from |metrics| and the digest like |wall_seconds|).
  int worlds_cloned = 0;
  int templates_built = 0;
  double boot_seconds = 0;  // Summed across worlds (not wall-parallel time).
  double fly_seconds = 0;
  uint64_t events_run = 0;
  // Per-world metric snapshots folded in world-index order (counters sum,
  // gauges last-world-wins, histograms merge).
  MetricsSnapshot metrics;
  // FNV chain over (index, digest) of completed worlds in index order:
  // equal fleet configs must produce equal fleet digests at any thread
  // count.
  uint64_t fleet_digest = 0;
  double wall_seconds = 0;
};

struct FleetOptions {
  int threads = 1;          // Worker threads (clamped to >= 1).
  uint64_t base_seed = 1;   // Root of every per-world seed.
  // Wall-clock budget for the whole fleet, milliseconds; 0 = unlimited.
  // When it expires the cancel flag trips: unstarted worlds are skipped,
  // running worlds see ShouldCancel() and wind down early.
  int64_t wall_budget_ms = 0;
};

class FleetExecutor {
 public:
  explicit FleetExecutor(FleetOptions options);

  // The seed world |index| gets under |base_seed| — exposed so tests and
  // single-world reproductions can replay one world of a fleet.
  static uint64_t WorldSeed(uint64_t base_seed, int index);

  // Runs |num_worlds| invocations of |fn| on max(1, threads) worker
  // threads, each claiming the next unclaimed world index until none are
  // left, and merges the results. Blocking; reusable (each Run is
  // independent and owns its cancel flag, which the wall budget trips).
  FleetReport Run(int num_worlds, const WorldFn& fn);

 private:
  FleetOptions options_;
};

}  // namespace androne

#endif  // SRC_EXEC_FLEET_EXECUTOR_H_
