// Replay sweep (DESIGN.md §15): record one seeded world per fault family,
// replay it from the log, and prove the two headline claims — the replay
// lands on the exact bytes of the recording run (digest, flight digest,
// metrics, trace), and it gets there at least twice as fast. The speedup
// comes from what replay skips: sensor synthesis, estimator filtering, the
// PID cascade (position and attitude controllers), physics integration,
// and planner annealing; the discrete layer (clock, MAVLink, proxy, the
// flight controller's mode step, safety supervisor, mission driver,
// telemetry, metrics) re-executes live.
//
// Timing uses process CPU time, not wall time: resim, replay and record
// are all CPU-bound single-world runs, and CPU time is stable where wall
// time jitters with scheduler noise. Each family times --reps interleaved
// rounds of one resim, one replay and one recording run (rotating which
// side runs first, so a host that speeds up or slows down mid-run hits
// every side alike); the speedup is the median of the per-round
// resim/replay ratios, with their min and max recorded, and the recording
// overhead the median of the per-round record/resim ratios. Each timed
// recording must reproduce the untimed one's log byte for byte.
//
// The sweep also exercises fork-and-explore: a what-if fan-out from the
// baseline world's last decision-point checkpoint, whose control branch
// must continue the recorded timeline bit-identically.
//
// Flags:
//   --reps N       interleaved resim/replay/record rounds per family
//                  (default 15)
//   --seed N       world seed (default 2026)
//   --branches N   fork-and-explore branch count (default 4)
//   --json PATH    machine-readable results; the CI gate greps for
//                  "digest_match": true and "replay_speedup_ge_2": true
#include <ctime>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/exec/fleet_executor.h"
#include "src/exec/fleet_world.h"
#include "src/hw/sensor_faults.h"
#include "src/net/fault_injector.h"
#include "src/replay/explore.h"
#include "src/replay/replay_log.h"
#include "src/util/logging.h"

namespace androne {
namespace {

constexpr uint64_t kDefaultSeed = 2026;
constexpr int kDefaultReps = 15;
constexpr int kDefaultBranches = 4;

// The reference mission (same as the recovery sweep): two tenants with
// long dwells, a ~128 sim-second flight. Long missions are the regime
// replay is for — the longer the flight, the more continuous-plane work
// the log amortizes away.
FleetWorldConfig MissionConfig() {
  FleetWorldConfig config;
  config.tenants = 2;
  config.dwell_s = 15;
  config.annealing_iterations = 200;
  return config;
}

double CpuNowS() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// CPU seconds of one world run; the result lands in |out|.
double TimeWorld(const FleetWorldConfig& config, uint64_t seed,
                 WorldResult* out) {
  WorldContext ctx;
  ctx.seed = seed;
  const double start = CpuNowS();
  *out = RunFleetWorld(config, ctx);
  return CpuNowS() - start;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct TimedRounds {
  WorldResult resim;
  WorldResult replay;
  WorldResult record;
  std::vector<double> resim_s;
  std::vector<double> replay_s;
  std::vector<double> record_s;
  std::vector<double> ratio;     // resim / replay, per round.
  std::vector<double> overhead;  // record / resim, per round.
};

// |rounds| rounds of the three sides; round i starts at side i % 3.
TimedRounds RunRounds(const FleetWorldConfig& resim,
                      const FleetWorldConfig& replay,
                      const FleetWorldConfig& record, uint64_t seed,
                      int rounds) {
  TimedRounds t;
  for (int i = 0; i < rounds; ++i) {
    double resim_s = 0;
    double replay_s = 0;
    double record_s = 0;
    for (int k = 0; k < 3; ++k) {
      switch ((i + k) % 3) {
        case 0:
          resim_s = TimeWorld(resim, seed, &t.resim);
          break;
        case 1:
          replay_s = TimeWorld(replay, seed, &t.replay);
          break;
        default:
          record_s = TimeWorld(record, seed, &t.record);
          break;
      }
    }
    t.resim_s.push_back(resim_s);
    t.replay_s.push_back(replay_s);
    t.record_s.push_back(record_s);
    t.ratio.push_back(replay_s > 0 ? resim_s / replay_s : 0);
    t.overhead.push_back(resim_s > 0 ? record_s / resim_s : 0);
  }
  return t;
}

bool Matches(const WorldResult& replayed, const WorldResult& baseline) {
  return replayed.completed == baseline.completed &&
         replayed.digest == baseline.digest &&
         replayed.flight_digest == baseline.flight_digest &&
         replayed.counters == baseline.counters &&
         replayed.metrics.Digest() == baseline.metrics.Digest() &&
         replayed.trace_text == baseline.trace_text;
}

struct Family {
  const char* name;
  const FaultPlan* net_faults = nullptr;
  const SensorFaultPlan* sensor_faults = nullptr;
};

struct Row {
  std::string family;
  double resim_ms = 0;   // Median over the rounds.
  double replay_ms = 0;  // Median over the rounds.
  double record_ms = 0;  // Median over the rounds.
  double speedup = 0;    // Median resim / replay ratio.
  double speedup_min = 0;
  double speedup_max = 0;
  double record_overhead = 0;  // Median record / resim ratio.
  bool digest_match = false;
  uint64_t ticks = 0;
  uint64_t log_bytes = 0;
  uint64_t underruns = 0;
};

int Run(int argc, char** argv) {
  const char* reps_arg = FlagArg(argc, argv, "--reps");
  const char* seed_arg = FlagArg(argc, argv, "--seed");
  const char* branches_arg = FlagArg(argc, argv, "--branches");
  const char* json_path = JsonPathArg(argc, argv);

  const int reps =
      std::max(1, reps_arg != nullptr ? std::atoi(reps_arg) : kDefaultReps);
  const uint64_t seed = seed_arg != nullptr
                            ? std::strtoull(seed_arg, nullptr, 0)
                            : kDefaultSeed;
  const int branches = std::max(
      1, branches_arg != nullptr ? std::atoi(branches_arg) : kDefaultBranches);

  SetMinLogLevel(LogLevel::kWarning);
  BenchHeader("Replay sweep",
              "record-once replay: bit-identity and resim speedup");

  // The fault families the sweep records under. Chaos makes the claim
  // stronger, not weaker: a replayed world re-executes the discrete layer
  // (failsafes, glitch handling, retries) against the recorded plane, so
  // the equivalence must hold under fault pressure too.
  FaultPlan link_loss;
  (void)link_loss.AddBurstLoss(Seconds(20), Seconds(60), 0.15);
  SensorFaultPlan sensor_chaos;
  (void)sensor_chaos.AddNoiseInflation(SensorChannel::kGps, Seconds(25),
                                       Seconds(30), 1.5);
  (void)sensor_chaos.AddBaroSpike(Seconds(60), Seconds(20), 12.0, 0.02);
  const std::vector<Family> families = {
      {"baseline", nullptr, nullptr},
      {"link_loss", &link_loss, nullptr},
      {"sensor_chaos", nullptr, &sensor_chaos},
  };

  std::printf("  seed %llx, %d interleaved rounds per family, CPU time,"
              " medians\n\n",
              static_cast<unsigned long long>(seed), reps);
  std::printf("  %-14s %10s %10s %9s %15s %10s %10s %10s %10s  %s\n",
              "family", "resim ms", "replay ms", "speedup", "round min-max",
              "record ms", "rec/resim", "ticks", "log KB", "digest");

  std::vector<Row> rows;
  bool all_match = true;
  double min_speedup = 0;
  for (const Family& family : families) {
    FleetWorldConfig mission = MissionConfig();
    mission.net_faults = family.net_faults;
    mission.sensor_faults = family.sensor_faults;

    // Record once (untimed), then time live resim vs replay-from-log.
    ReplayLogStore store;
    FleetWorldConfig record = mission;
    record.record_into = &store;
    WorldContext record_ctx;
    record_ctx.seed = seed;
    WorldResult recorded = RunFleetWorld(record, record_ctx);
    if (recorded.infra_failure) {
      std::printf("  %-14s RECORD FAILED\n", family.name);
      all_match = false;
      continue;
    }

    FleetWorldConfig replay = mission;
    replay.replay_from = &store;
    // The timed recordings go to their own store: a Put into |store| would
    // drop the log view the replays share.
    ReplayLogStore rerecorded;
    FleetWorldConfig rerecord = mission;
    rerecord.record_into = &rerecorded;
    // One untimed replay first: it validates and caches the log view that
    // every later replay of this seed shares (the recording run already
    // warmed the resim side).
    WorldResult warmup;
    (void)TimeWorld(replay, seed, &warmup);
    TimedRounds timed = RunRounds(mission, replay, rerecord, seed, reps);
    const WorldResult& replayed = timed.replay;
    const auto log = store.Get(seed);
    const auto relog = rerecorded.Get(seed);

    Row row;
    row.family = family.name;
    row.resim_ms = Median(timed.resim_s) * 1e3;
    row.replay_ms = Median(timed.replay_s) * 1e3;
    row.record_ms = Median(timed.record_s) * 1e3;
    row.speedup = Median(timed.ratio);
    row.speedup_min = *std::min_element(timed.ratio.begin(), timed.ratio.end());
    row.speedup_max = *std::max_element(timed.ratio.begin(), timed.ratio.end());
    row.record_overhead = Median(timed.overhead);
    row.digest_match = replayed.replay.digest_match &&
                       replayed.replay.underruns == 0 &&
                       Matches(replayed, recorded) &&
                       Matches(timed.resim, recorded) &&
                       Matches(timed.record, recorded) && log != nullptr &&
                       relog != nullptr && *log == *relog;
    row.ticks = replayed.replay.ticks;
    row.log_bytes = replayed.replay.log_bytes;
    row.underruns = replayed.replay.underruns;
    all_match = all_match && row.digest_match;
    min_speedup = rows.empty() ? row.speedup
                               : std::min(min_speedup, row.speedup);
    std::printf("  %-14s %10.2f %10.2f %8.2fx %7.2fx-%5.2fx %10.2f %9.2fx"
                " %10llu %10.1f  %s\n",
                family.name, row.resim_ms, row.replay_ms, row.speedup,
                row.speedup_min, row.speedup_max, row.record_ms,
                row.record_overhead,
                static_cast<unsigned long long>(row.ticks),
                static_cast<double>(row.log_bytes) / 1024.0,
                row.digest_match ? "identical" : "DIVERGED");
    rows.push_back(row);
  }

  // Fork-and-explore on the baseline family: the control branch must
  // continue the recorded timeline bit-identically; the divergent branches
  // just have to come back as data.
  ExploreOptions explore;
  explore.config = MissionConfig();
  explore.seed = seed;
  explore.branches = branches;
  explore.threads = 2;
  auto what_if = ExploreFromDecisionPoint(explore);
  bool explore_ok = what_if.ok() && what_if->control_match;
  if (what_if.ok()) {
    std::printf("\n%s", what_if->ToText().c_str());
  } else {
    std::printf("\n  fork-and-explore FAILED: %s\n",
                what_if.status().message().c_str());
  }
  all_match = all_match && explore_ok;

  const bool speedup_ge_2 = min_speedup >= 2.0;
  std::printf("\n  replayed worlds %s the recording runs\n",
              all_match ? "MATCH" : "DIVERGE FROM");
  std::printf("  replay is %.2fx resim (median round ratio) in the slowest"
              " family — %s the 2x gate\n\n",
              min_speedup, speedup_ge_2 ? "clears" : "MISSES");
  BenchNote("a replayed world re-executes the discrete layer against the "
            "recorded flight plane and lands on the recording's exact bytes");

  if (json_path != nullptr) {
    JsonObject doc;
    doc["bench"] = "replay_sweep";
    doc["seed"] = HexDigest(seed);
    doc["pairs"] = static_cast<double>(reps);
    doc["digest_match"] = all_match;
    doc["replay_speedup_ge_2"] = speedup_ge_2;
    doc["min_speedup"] = min_speedup;
    doc["explore_branches"] =
        static_cast<double>(what_if.ok() ? what_if->branches.size() : 0);
    doc["explore_branches_completed"] = static_cast<double>(
        what_if.ok() ? what_if->branches_completed : 0);
    doc["explore_control_match"] = explore_ok;
    JsonArray out_rows;
    for (const Row& row : rows) {
      JsonObject r;
      r["family"] = row.family;
      r["resim_ms"] = row.resim_ms;
      r["replay_ms"] = row.replay_ms;
      r["speedup"] = row.speedup;
      r["speedup_min"] = row.speedup_min;
      r["speedup_max"] = row.speedup_max;
      r["record_ms"] = row.record_ms;
      r["record_overhead"] = row.record_overhead;
      r["digest_match"] = row.digest_match;
      r["ticks"] = static_cast<double>(row.ticks);
      r["log_bytes"] = static_cast<double>(row.log_bytes);
      r["underruns"] = static_cast<double>(row.underruns);
      out_rows.emplace_back(std::move(r));
    }
    doc["rows"] = JsonValue(out_rows);
    WriteJsonDoc(json_path, doc);
  }
  // Exit gates on correctness only; the 2x speedup gate lives in the CI
  // grep of the JSON so a noisy box fails loudly there, not silently here.
  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace androne

int main(int argc, char** argv) { return androne::Run(argc, argv); }
