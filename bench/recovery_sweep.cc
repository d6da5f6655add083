// Recovery sweep (DESIGN.md §13): crash one seeded world at each requested
// sim-time, recover it from its latest checkpoint, and prove the headline
// guarantee — the recovered world's determinism digest, flight digest,
// metrics digest, and event count are bit-identical to the uninterrupted
// run at the same seed. For each crash point the bench also times the two
// recovery disciplines against each other:
//
//   restore+replay   reload the latest checkpoint, replay from its sim-time
//   boot replay      checkpointing off — re-fly the whole mission from boot
//
// Restore-and-replay redoes only the window between the last checkpoint
// and the crash instead of the whole flight, but pays a rebuild and an
// overlay; the per-row and sweep speedups are recorded, not gated. A
// no-crash pass with checkpointing on also prices the capture overhead
// (blob size, per-checkpoint cost) against the plain baseline.
//
// Flags:
//   --crash-at S[,S..]  crash sim-times in seconds (default 36,72,108,
//                       spread across the ~128 s reference mission)
//   --cadence S         periodic checkpoint period (default 6; phase-
//                       boundary captures stay on in every checkpointing
//                       pass)
//   --reps N            repetitions per timed cell, best-of (default 3)
//   --seed N            world seed (default 2026)
//   --json PATH         machine-readable results; the CI gate greps for
//                       "digest_match": true
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/exec/fleet_executor.h"
#include "src/exec/fleet_world.h"
#include "src/util/logging.h"
#include "src/util/status.h"

namespace androne {
namespace {

constexpr uint64_t kDefaultSeed = 2026;
constexpr double kDefaultCadenceS = 6;
constexpr int kDefaultReps = 3;

// The reference mission: two tenants with long dwells, giving a ~128
// sim-second flight. A long mission is the regime recovery is for — the
// later the crash, the more flight a checkpoint restore skips re-flying.
FleetWorldConfig MissionConfig() {
  FleetWorldConfig config;
  config.tenants = 2;
  config.dwell_s = 15;
  config.annealing_iterations = 200;
  return config;
}

struct Timed {
  WorldResult result;
  double wall_s = 0;  // Best of the repetitions.
};

Timed RunTimed(const FleetWorldConfig& config, uint64_t seed, int reps) {
  Timed timed;
  for (int rep = 0; rep < reps; ++rep) {
    WorldContext ctx;
    ctx.seed = seed;
    auto start = std::chrono::steady_clock::now();
    WorldResult result = RunFleetWorld(config, ctx);
    double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (rep == 0 || wall_s < timed.wall_s) {
      timed.wall_s = wall_s;
    }
    timed.result = std::move(result);
  }
  return timed;
}

bool Matches(const WorldResult& recovered, const WorldResult& baseline) {
  return recovered.completed == baseline.completed &&
         recovered.digest == baseline.digest &&
         recovered.flight_digest == baseline.flight_digest &&
         recovered.events_run == baseline.events_run &&
         recovered.counters == baseline.counters &&
         recovered.metrics.Digest() == baseline.metrics.Digest();
}

struct Row {
  double crash_at_s = 0;
  double restore_wall_s = 0;
  double boot_wall_s = 0;
  double speedup = 0;
  int restores = 0;
  int replays_from_boot = 0;
  int checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  bool fixed_point_ok = false;
  bool digest_match = false;       // Restore+replay run vs baseline.
  bool boot_digest_match = false;  // Boot-replay run vs baseline.
};

StatusOr<std::vector<double>> ParseCrashList(const char* text) {
  std::vector<double> times;
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    double value = std::strtod(p, &end);
    if (end == p || value <= 0) {
      return InvalidArgumentError(std::string("--crash-at: bad value in \"") +
                                  text + "\"");
    }
    if (!times.empty() && value <= times.back()) {
      // Rows are independent single-crash runs; ascending order just keeps
      // the table readable.
      return InvalidArgumentError("--crash-at: times must be ascending");
    }
    times.push_back(value);
    p = *end == ',' ? end + 1 : end;
  }
  if (times.empty()) {
    return InvalidArgumentError("--crash-at: empty list");
  }
  return times;
}

int Run(int argc, char** argv) {
  const char* crash_arg = FlagArg(argc, argv, "--crash-at");
  const char* cadence_arg = FlagArg(argc, argv, "--cadence");
  const char* reps_arg = FlagArg(argc, argv, "--reps");
  const char* seed_arg = FlagArg(argc, argv, "--seed");
  const char* json_path = JsonPathArg(argc, argv);

  auto crash_points = ParseCrashList(crash_arg != nullptr ? crash_arg
                                                          : "36,72,108");
  if (!crash_points.ok()) {
    std::printf("%s\n", crash_points.status().message().c_str());
    return 1;
  }
  const double cadence_s =
      cadence_arg != nullptr ? std::atof(cadence_arg) : kDefaultCadenceS;
  const int reps =
      std::max(1, reps_arg != nullptr ? std::atoi(reps_arg) : kDefaultReps);
  const uint64_t seed = seed_arg != nullptr
                            ? std::strtoull(seed_arg, nullptr, 0)
                            : kDefaultSeed;

  SetMinLogLevel(LogLevel::kWarning);
  BenchHeader("Recovery sweep",
              "crash/restore equivalence and recovery economics");

  // The uninterrupted reference run: no crashes, no checkpoints.
  const FleetWorldConfig mission = MissionConfig();
  Timed baseline = RunTimed(mission, seed, reps);
  if (!baseline.result.completed) {
    std::printf("  baseline world did not complete; aborting\n");
    return 1;
  }

  // Checkpointing on, no crash: captures are pure reads, so the digest
  // must not move, and the wall delta prices the capture overhead.
  FleetWorldConfig checkpointing = mission;
  checkpointing.checkpoint =
      CheckpointPolicy{cadence_s, /*at_phase_boundaries=*/true};
  Timed overhead = RunTimed(checkpointing, seed, reps);
  const bool overhead_match = Matches(overhead.result, baseline.result);
  const int overhead_checkpoints = overhead.result.recovery.checkpoints_saved;
  const double per_checkpoint_us =
      overhead_checkpoints > 0
          ? (overhead.wall_s - baseline.wall_s) / overhead_checkpoints * 1e6
          : 0;

  std::printf("  seed %llx, cadence %.3gs, best of %d reps\n",
              static_cast<unsigned long long>(seed), cadence_s, reps);
  std::printf("  baseline: %.3fs wall, digest %016llx, %llu events\n",
              baseline.wall_s,
              static_cast<unsigned long long>(baseline.result.digest),
              static_cast<unsigned long long>(baseline.result.events_run));
  std::printf("  checkpointing: %d checkpoints, %zu B latest, "
              "~%.0f us/checkpoint, digest %s\n\n",
              overhead_checkpoints,
              static_cast<size_t>(overhead.result.recovery.checkpoint_bytes),
              per_checkpoint_us < 0 ? 0 : per_checkpoint_us,
              overhead_match ? "unmoved" : "MOVED");

  std::vector<Row> rows;
  bool all_match = overhead_match;
  double total_restore_s = 0;
  double total_boot_s = 0;
  std::printf("  %-10s %12s %12s %9s %9s %6s %8s  %s\n", "crash at",
              "restore s", "boot s", "speedup", "ckpts", "bytes",
              "fixpoint", "digest");
  for (double crash_at : *crash_points) {
    Row row;
    row.crash_at_s = crash_at;

    FleetWorldConfig restore = checkpointing;
    restore.crash_at_s = {crash_at};
    Timed recovered = RunTimed(restore, seed, reps);
    row.restore_wall_s = recovered.wall_s;
    row.restores = recovered.result.recovery.restores;
    row.checkpoints = recovered.result.recovery.checkpoints_saved;
    row.checkpoint_bytes = recovered.result.recovery.checkpoint_bytes;
    row.fixed_point_ok = recovered.result.recovery.fixed_point_ok;
    row.digest_match = Matches(recovered.result, baseline.result) &&
                       row.fixed_point_ok;

    FleetWorldConfig boot = mission;  // Checkpointing off: replay from boot.
    boot.crash_at_s = {crash_at};
    Timed replayed = RunTimed(boot, seed, reps);
    row.boot_wall_s = replayed.wall_s;
    row.replays_from_boot = replayed.result.recovery.replays_from_boot;
    row.boot_digest_match = Matches(replayed.result, baseline.result);

    row.speedup = row.restore_wall_s > 0
                      ? row.boot_wall_s / row.restore_wall_s
                      : 0;
    all_match = all_match && row.digest_match && row.boot_digest_match;
    total_restore_s += row.restore_wall_s;
    total_boot_s += row.boot_wall_s;
    std::printf("  %8.3gs %12.3f %12.3f %8.2fx %9d %6zu %8s  %s\n",
                row.crash_at_s, row.restore_wall_s, row.boot_wall_s,
                row.speedup, row.checkpoints,
                static_cast<size_t>(row.checkpoint_bytes),
                row.fixed_point_ok ? "ok" : "BROKEN",
                row.digest_match && row.boot_digest_match ? "identical"
                                                          : "DIVERGED");
    rows.push_back(row);
  }

  // The sweep-total wall weighs early crashes (little flight to skip)
  // against late ones.
  const double sweep_speedup =
      total_restore_s > 0 ? total_boot_s / total_restore_s : 0;
  std::printf("\n  recovered worlds %s the uninterrupted baseline\n",
              all_match ? "MATCH" : "DIVERGE FROM");
  std::printf("  restore+replay vs re-flying from boot across the sweep: "
              "%.2fx\n\n", sweep_speedup);
  BenchNote("a crashed world replays from its latest checkpoint and lands "
            "on the exact bytes of the run that never crashed");

  if (json_path != nullptr) {
    JsonObject doc;
    doc["bench"] = "recovery_sweep";
    doc["seed"] = HexDigest(seed);
    doc["cadence_s"] = cadence_s;
    doc["reps"] = static_cast<double>(reps);
    doc["baseline_wall_s"] = baseline.wall_s;
    doc["baseline_digest"] = HexDigest(baseline.result.digest);
    doc["baseline_events"] =
        static_cast<double>(baseline.result.events_run);
    doc["checkpoint_overhead_match"] = overhead_match;
    doc["checkpoints_per_run"] = static_cast<double>(overhead_checkpoints);
    doc["checkpoint_bytes"] =
        static_cast<double>(overhead.result.recovery.checkpoint_bytes);
    doc["per_checkpoint_us"] = per_checkpoint_us < 0 ? 0 : per_checkpoint_us;
    doc["digest_match"] = all_match;
    doc["sweep_speedup"] = sweep_speedup;
    JsonArray out_rows;
    for (const Row& row : rows) {
      JsonObject r;
      r["crash_at_s"] = row.crash_at_s;
      r["restore_wall_s"] = row.restore_wall_s;
      r["boot_replay_wall_s"] = row.boot_wall_s;
      r["speedup"] = row.speedup;
      r["restores"] = static_cast<double>(row.restores);
      r["replays_from_boot"] = static_cast<double>(row.replays_from_boot);
      r["checkpoints_saved"] = static_cast<double>(row.checkpoints);
      r["checkpoint_bytes"] = static_cast<double>(row.checkpoint_bytes);
      r["fixed_point_ok"] = row.fixed_point_ok;
      r["digest_match"] = row.digest_match;
      r["boot_digest_match"] = row.boot_digest_match;
      out_rows.emplace_back(std::move(r));
    }
    doc["rows"] = JsonValue(out_rows);
    WriteJsonDoc(json_path, doc);
  }
  // Exit gates on correctness only: wall-clock comparisons are recorded in
  // the JSON but never fail the run (timing noise must not break CI).
  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace androne

int main(int argc, char** argv) { return androne::Run(argc, argv); }
