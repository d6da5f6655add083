// The repository benchmark: four workloads driven through the public entry
// points (FleetExecutor + RunFleetWorld, FleetWorldConfig::replay_from,
// CampaignRunner::Run, ControlPlaneRouter::Serve), and a layer sweep of
// probes and differential passes that times each src/ module's public
// calls from outside. main.cc turns both into the result line.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "src/ctrl/router.h"
#include "src/ctrl/tenant_mix.h"
#include "src/exec/fleet_world.h"
#include "src/scenario/generator.h"

namespace androne::perfbench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string manifest_path;  // The builtin eight-family campaign manifest.
  int threads = 4;            // Campaign executor threads (<= nproc).
};

// What one workload run measured and checked.
struct WorkloadRun {
  OpTally ops;
  std::vector<std::string> problems;  // Failed checks; any one fails the run.
  std::vector<std::string> notes;     // Modelled outcomes and digests.
  // Set-up samples: the wall of each and the number of set-ups it ran.
  std::vector<std::pair<double, int>> setup_samples;
  double interleaved_setup_s = 0;  // Wall of the samples inside the pass.
  double wall_s = 0;               // Timed calls, tracing off.
  double sim_s = 0;                // Simulated seconds they covered.
  double peak_rss_mb = 0;
  // [ops, simulated s, wall s] of each call the timed pass made (a pool
  // pass, a campaign batch, a Serve call).
  JsonArray calls;
  MetricSet detail;    // Workload-named figures (world.rtf, ...).
  SpanRecorder spans;  // Traced pass only.
  MetricSet layers;    // Traced pass only.

  void AddCall(double ops, double call_sim_s, double call_wall_s) {
    sim_s += call_sim_s;
    wall_s += call_wall_s;
    calls.push_back(JsonArray{ops, call_sim_s, call_wall_s});
  }
  // Times one set-up sample: |setup| back to back until at least 0.1 s has
  // passed, so a millisecond set-up is not timed by one pair of clock reads.
  void TimeSetup(const std::function<void()>& setup);
  // Called between timed calls: takes one set-up sample whenever the
  // samples inside the pass have had less than a tenth of its wall since
  // |pass_start_ns|. A shared host's speed flips every second or two, so
  // set-up sampled only before the pass would meet one speed per run.
  void InterleaveSetup(const std::function<void()>& setup,
                       int64_t pass_start_ns);
  // setup_s: the median, over five consecutive slices of the samples, of
  // each slice's wall per set-up.
  double SetupSeconds() const;
};

bool IsWorkload(const std::string& name);
WorkloadRun RunWorkload(const BenchOptions& options);

// Probes and differential passes; the same fixed-size procedure in every
// traced run. Adds the per-layer metrics to |run.layers|, spans to
// |run.spans|, and failed consistency checks to |run.problems|.
void RunLayerSweep(const BenchOptions& options, WorkloadRun& run);

// --- Inputs shared by the workloads and the layer sweep ---

// The canonical fleet world (FleetWorldConfig defaults) with |tenants|
// tenants, cloning from |templates|.
FleetWorldConfig WorldConfig(int tenants, WorldTemplateCache* templates);

// A pool of world slots: per-slot tenant counts 1..3 in equal shares, in
// an order shuffled from the seed, and the executor base seed.
struct WorldPool {
  uint64_t base_seed = 0;
  std::vector<int> tenants;
};
WorldPool MakeWorldPool(uint64_t seed, int size);

// One FleetExecutor::Run over the first |slots| pool slots on 1 thread;
// each slot's RunFleetWorld call is timed from inside the world function.
struct PoolPass {
  FleetReport report;
  std::vector<int64_t> start_ns;
  std::vector<int64_t> end_ns;
  double wall_s = 0;
};
using ConfigFor = std::function<FleetWorldConfig(int slot)>;
PoolPass RunPool(const WorldPool& pool, int slots, const ConfigFor& config_for);

// The config fingerprint a replay log's header binds it to.
uint64_t ReplayLogFingerprint(const std::string& bytes);

// The builtin campaign manifest, parsed. Its own seed stays: that is the
// expansion CI holds to zero unexpected verdicts, while other seeds can
// expand to a scenario that fails its assertions (a modelled failure the
// benchmark would have to count). The benchmark seed picks instead which
// scenarios run together and in what order.
StatusOr<CampaignSpec> LoadCampaign(const std::string& manifest_path);

// control_plane_sweep's headline per-shard load (150 sessions, 8 boards,
// 512-deep queue, 40 s arrival window) on |shards| shards, 1 router thread.
ControlPlaneConfig ServeConfig(uint64_t seed, int shards);

// ControlPlaneRouter::Serve taken apart: load generation, one
// FleetManager::Serve per shard, and the terminal-state tally.
struct ServeSplit {
  double load_gen_ms = 0;
  std::vector<double> shard_ms;
  uint64_t sessions = 0;
  uint64_t records = 0;
  uint64_t events = 0;
  int billed = 0, rejected = 0, cancelled = 0, failed = 0;
  double admitted = 0, queued = 0, boards_launched = 0;
};
ServeSplit SplitServe(const ControlPlaneConfig& config,
                      const TenantMixSpec& mix, SpanRecorder& spans,
                      int parent);
// Consistency of a split against the report Serve returned for the same
// config: shard sessions sum to the load and terminal counts match.
std::vector<std::string> CheckServeSplit(const ServeSplit& split,
                                         const ControlPlaneReport& report);

double ElapsedMs(int64_t start_ns);
// A named counter, 0 when absent.
double Counter(const std::map<std::string, double>& counters,
               const char* name);

}  // namespace androne::perfbench

#endif  // PERFBENCH_PERFBENCH_H_
