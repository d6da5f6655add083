// The four workloads. Each is a closed loop in one process: an op starts
// when the previous one returns (the campaign runs one such loop per
// executor worker). The timed pass runs with tracing off until --seconds
// have passed; set-up is sampled several times (see SetupSeconds); with
// tracing on, the first calls of the timed pass run again with spans.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "perfbench.h"
#include "src/ctrl/fleet_manager.h"
#include "src/ctrl/load_gen.h"
#include "src/exec/fleet_executor.h"
#include "src/exec/world_template.h"
#include "src/replay/replay_log.h"
#include "src/scenario/campaign.h"
#include "src/scenario/manifest.h"
#include "src/snapshot/snapshot.h"
#include "src/util/rng.h"

namespace androne::perfbench {

namespace {

// Set-up sampling. World, campaign and serve take one sample before the
// timed pass and more between its calls (InterleaveSetup); replay's set-up
// records a whole pool in about 2 s, so it takes its samples up front.
constexpr int kReplaySetupSamples = 3;
constexpr int64_t kSetupSampleNs = 100'000'000;
constexpr double kInterleavedSetupShare = 0.1;
constexpr size_t kSetupSlices = 5;
constexpr int kWorldPoolSize = 24;
constexpr int kReplayPoolSize = 12;
constexpr int kCampaignBatches = 16;
constexpr int kServeShards = 16;
constexpr int kServeSeeds = 4;
constexpr int kTracedCalls = 2;  // Timed-pass calls the traced pass repeats.
constexpr size_t kMaxProblems = 20;
constexpr double kFastLoopHz = 400;

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

// Peak resident memory of this process image since the last ResetPeakRss.
// VmHWM, not getrusage: the latter's maxrss survives exec and would report
// the launching parent.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

// Restarts the high-water mark once set-up is done: peak_rss_mb is the
// memory the timed ops run in (replay logs included), not the debris of
// repeating the set-up for its median, which is first handed back.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

void Problem(WorkloadRun& run, std::string what) {
  if (run.problems.size() < kMaxProblems) {
    run.problems.push_back(std::move(what));
  }
}

// Records |digest| as the reference for |key| the first time, and reports
// whether it equals the reference afterwards.
bool SameDigest(std::map<int, uint64_t>& refs, int key, uint64_t digest) {
  auto [it, inserted] = refs.try_emplace(key, digest);
  return inserted || it->second == digest;
}

// The timed pass's wall per distinct call, so the traced pass compares like
// with like: obs.trace_overhead is traced wall over the median untraced wall
// of the same calls, minus one.
struct CallWalls {
  std::map<int, std::vector<double>> by_key;
  void Add(int key, double wall_s) { by_key[key].push_back(wall_s); }
  double Reference(int key) const {
    auto it = by_key.find(key);
    return it == by_key.end() ? 0 : Median(it->second);
  }
};

void AddTracedPassMetrics(WorkloadRun& run, double traced_s,
                          double untraced_s, double events,
                          double thread_ns, double retried) {
  run.layers.Add("obs.trace_overhead",
                 untraced_s > 0 ? traced_s / untraced_s - 1 : 0, "ratio");
  run.layers.Add("util.sim_clock.events", events, "count");
  run.layers.Add("util.sim_clock.ns_per_event",
                 events > 0 ? thread_ns / events : 0, "ns");
  run.layers.Add("exec.worlds_retried", retried, "count");
}

// ---------------------------------------------------------------- worlds

// An op fails when its world is incomplete, an infrastructure failure, a
// replay whose digests missed the recording, or its digest differs from
// the same seed's earlier in the run.
void TallyWorlds(const PoolPass& pass, bool replay,
                 std::map<int, uint64_t>& digests, WorkloadRun& run,
                 std::vector<double>& walls_ms) {
  double sim_s = 0;
  for (size_t i = 0; i < pass.report.worlds.size(); ++i) {
    const WorldResult& w = pass.report.worlds[i];
    bool ok = w.completed && !w.infra_failure;
    if (replay) {
      ok = ok && w.replay.replayed && w.replay.digest_match;
    }
    ok = SameDigest(digests, static_cast<int>(i), w.digest) && ok;
    run.ops.Add(ok);
    if (!ok) {
      Problem(run, "world slot " + std::to_string(i) + " seed " +
                       Hex(w.seed) + " failed (digest " + Hex(w.digest) +
                       ")");
    }
    walls_ms.push_back(static_cast<double>(pass.end_ns[i] - pass.start_ns[i]) /
                       1e6);
    sim_s += Counter(w.counters, "flight_time_s");
  }
  run.AddCall(static_cast<double>(pass.report.worlds.size()), sim_s,
              pass.wall_s);
}

void AddWallPercentiles(WorkloadRun& run, const std::string& prefix,
                        const std::vector<double>& walls_ms) {
  run.detail.Add(prefix + ".wall_ms.p50", Percentile(walls_ms, 50), "ms");
  run.detail.Add(prefix + ".wall_ms.p90", Percentile(walls_ms, 90), "ms");
  run.detail.Add(prefix + ".wall_ms.samples",
                 static_cast<double>(walls_ms.size()), "count");
  const double tail = TailPercentileFor(walls_ms.size());
  if (tail > 90) {
    run.detail.Add(prefix + ".wall_ms.p" + FormatNumberCompact(tail),
                   Percentile(walls_ms, tail), "ms");
  }
}

// Timed passes over the pool until the deadline, with |setup| (when given)
// sampled between them.
void TimePool(const BenchOptions& options, const WorldPool& pool,
              const ConfigFor& config_for, bool replay,
              const std::function<void()>* setup,
              std::map<int, uint64_t>& digests, WorkloadRun& run,
              std::vector<double>& walls_ms, std::vector<double>& pass_walls) {
  const int slots = static_cast<int>(pool.tenants.size());
  ResetPeakRss();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  while (true) {
    PoolPass pass = RunPool(pool, slots, config_for);
    pass_walls.push_back(pass.wall_s);
    TallyWorlds(pass, replay, digests, run, walls_ms);
    if (NowNs() >= deadline) {
      break;
    }
    if (setup != nullptr) {
      run.InterleaveSetup(*setup, start);
    }
  }
  run.peak_rss_mb = PeakRssMb();
}

// The traced pass over the pool: a span per executor call, one per world
// (its op), and the world's own provisioning and flight timers as children.
void TracePool(const WorldPool& pool, const ConfigFor& config_for,
               const char* world_span, double untraced_pass_s,
               const std::map<int, uint64_t>& digests, WorkloadRun& run) {
  const int slots = static_cast<int>(pool.tenants.size());
  double traced_s = 0;
  double events = 0;
  double world_ns = 0;
  double retried = 0;
  for (int p = 0; p < kTracedCalls; ++p) {
    const int call = run.spans.Begin("FleetExecutor::Run", -1, -1);
    PoolPass pass = RunPool(pool, slots, config_for);
    run.spans.End(call);
    traced_s += pass.wall_s;
    retried += pass.report.retried;
    for (size_t i = 0; i < pass.report.worlds.size(); ++i) {
      const WorldResult& w = pass.report.worlds[i];
      if (w.digest != digests.at(static_cast<int>(i))) {
        Problem(run, "traced world slot " + std::to_string(i) +
                         " changed its digest");
      }
      const int64_t start = pass.start_ns[i];
      const int64_t op = int64_t{p} * slots + static_cast<int64_t>(i);
      const int id = run.spans.Add(world_span, start, pass.end_ns[i], call, op);
      run.spans.Count(id, "events_run", static_cast<double>(w.events_run));
      run.spans.Count(id, "fast_loops",
                      Counter(w.metrics.counters, "rt.fast_loops"));
      run.spans.Count(id, "flight_time_s",
                      Counter(w.counters, "flight_time_s"));
      const int64_t boot = static_cast<int64_t>(w.provision.boot_ns);
      const int64_t fly = static_cast<int64_t>(w.provision.fly_ns);
      run.spans.Add(w.provision.cloned ? "provision.clone" : "provision.boot",
                    start, start + boot, id, op);
      run.spans.Add("fly", start + boot, start + boot + fly, id, op);
      events += static_cast<double>(w.events_run);
      world_ns += static_cast<double>(pass.end_ns[i] - start);
    }
  }
  AddTracedPassMetrics(run, traced_s, kTracedCalls * untraced_pass_s, events,
                       world_ns, retried);
}

bool WorldOk(const WorldResult& w) { return w.completed && !w.infra_failure; }

WorkloadRun RunWorld(const BenchOptions& options) {
  WorkloadRun run;
  const WorldPool pool = MakeWorldPool(options.seed, kWorldPoolSize);
  std::unique_ptr<WorldTemplateCache> templates;
  const ConfigFor config_for = [&](int slot) {
    return WorldConfig(pool.tenants[static_cast<size_t>(slot)],
                       templates.get());
  };
  std::map<int, uint64_t> digests;

  // Set-up: a fresh template cache, cold-booted by a tenant-less world (the
  // template keys only on boot-time config, so the pool's worlds clone it);
  // with no tenants its flight is 31 idle simulated seconds for any seed.
  const std::function<void()> setup = [&] {
    templates = std::make_unique<WorldTemplateCache>();
    const PoolPass warm =
        RunPool(pool, 1, [&](int) { return WorldConfig(0, templates.get()); });
    const WorldResult& w = warm.report.worlds[0];
    if (!WorldOk(w) || !w.provision.built_template ||
        !SameDigest(digests, -1, w.digest)) {
      Problem(run, "set-up world failed, did not cold-boot, or changed its "
                   "digest");
    }
  };
  run.TimeSetup(setup);

  std::vector<double> walls_ms;
  std::vector<double> pass_walls;
  TimePool(options, pool, config_for, false, &setup, digests, run, walls_ms,
           pass_walls);
  run.detail.Add("world.rtf", run.sim_s / run.wall_s, "sim_s/s");
  AddWallPercentiles(run, "world", walls_ms);
  for (size_t i = 0; i < pool.tenants.size(); ++i) {
    run.notes.push_back("world slot " + std::to_string(i) + " tenants " +
                        std::to_string(pool.tenants[i]) + " digest " +
                        Hex(digests[static_cast<int>(i)]));
  }
  run.notes.push_back("world set-up (no tenants) digest " + Hex(digests[-1]));
  if (options.trace) {
    TracePool(pool, config_for, "RunFleetWorld", Median(pass_walls), digests,
              run);
  }
  return run;
}

WorkloadRun RunReplay(const BenchOptions& options) {
  WorkloadRun run;
  const WorldPool pool = MakeWorldPool(options.seed, kReplayPoolSize);
  const int slots = static_cast<int>(pool.tenants.size());
  std::unique_ptr<WorldTemplateCache> templates;
  std::unique_ptr<ReplayLogStore> store;
  std::map<int, uint64_t> digests;  // The recording runs' digests.

  // Set-up: record the pool, then parse every log into the store's cache.
  for (int rep = 0; rep < kReplaySetupSamples; ++rep) {
    store.reset();  // Frees the previous sample's logs first.
    run.TimeSetup([&] {
      templates = std::make_unique<WorldTemplateCache>();
      store = std::make_unique<ReplayLogStore>();
      PoolPass recorded = RunPool(pool, slots, [&](int slot) {
        FleetWorldConfig config = WorldConfig(
            pool.tenants[static_cast<size_t>(slot)], templates.get());
        config.record_into = store.get();
        return config;
      });
      for (int i = 0; i < slots; ++i) {
        const WorldResult& w = recorded.report.worlds[static_cast<size_t>(i)];
        const uint64_t seed = FleetExecutor::WorldSeed(pool.base_seed, i);
        std::shared_ptr<const std::string> bytes = store->Get(seed);
        bool ok = WorldOk(w) && w.replay.recorded && bytes != nullptr &&
                  SameDigest(digests, i, w.digest);
        ok = ok && store->Parsed(seed, ReplayLogFingerprint(*bytes)).ok();
        if (!ok) {
          Problem(run, "recording slot " + std::to_string(i) + " failed");
        }
      }
    });
  }

  const ConfigFor config_for = [&](int slot) {
    FleetWorldConfig config =
        WorldConfig(pool.tenants[static_cast<size_t>(slot)], templates.get());
    config.replay_from = store.get();
    return config;
  };
  std::vector<double> walls_ms;
  std::vector<double> pass_walls;
  TimePool(options, pool, config_for, true, nullptr, digests, run, walls_ms,
           pass_walls);
  run.detail.Add("replay.rtf", run.sim_s / run.wall_s, "sim_s/s");
  AddWallPercentiles(run, "replay", walls_ms);
  run.detail.Add("replay.store_mb",
                 static_cast<double>(store->total_bytes()) / (1 << 20), "MB");
  if (options.trace) {
    TracePool(pool, config_for, "RunFleetWorld.replay", Median(pass_walls),
              digests, run);
  }
  return run;
}

// -------------------------------------------------------------- campaign

// Shuffles each family's scenarios and the order of the families with
// |seed|, then deals them round-robin into |batches| batches, so every batch
// keeps the builtin family mix while the seed decides which batches get the
// small families (the failing ones that pay for triage). Expansion is
// family-major, so each family is one contiguous run.
std::vector<std::vector<ScenarioSpec>> DealCampaign(
    std::vector<ScenarioSpec> scenarios, uint64_t seed, int batches) {
  Rng rng(SplitMix64(seed ^ 0x63616d70ULL));
  std::vector<std::vector<ScenarioSpec>> families;
  for (ScenarioSpec& spec : scenarios) {
    if (families.empty() || families.back().back().family != spec.family) {
      families.emplace_back();
    }
    families.back().push_back(std::move(spec));
  }
  const auto shuffle = [&rng](auto& items) {
    for (size_t i = items.size() - 1; i > 0; --i) {
      std::swap(items[i], items[rng.NextU64Below(i + 1)]);
    }
  };
  for (std::vector<ScenarioSpec>& family : families) {
    shuffle(family);
  }
  shuffle(families);
  std::vector<std::vector<ScenarioSpec>> dealt(static_cast<size_t>(batches));
  size_t next = 0;
  for (std::vector<ScenarioSpec>& family : families) {
    for (ScenarioSpec& spec : family) {
      dealt[next++ % dealt.size()].push_back(std::move(spec));
    }
  }
  return dealt;
}

WorkloadRun RunCampaign(const BenchOptions& options) {
  WorkloadRun run;
  std::string name;
  std::vector<std::vector<ScenarioSpec>> batches;

  // Set-up: manifest parse and expansion, dealt into batches that each keep
  // the families in their builtin proportions.
  Status status;
  const std::function<void()> setup = [&] {
    StatusOr<CampaignSpec> campaign = LoadCampaign(options.manifest_path);
    if (!campaign.ok()) {
      status = campaign.status();
      return;
    }
    StatusOr<std::vector<ScenarioSpec>> scenarios = ExpandScenarios(*campaign);
    if (!scenarios.ok()) {
      status = scenarios.status();
      return;
    }
    name = campaign->name;
    batches =
        DealCampaign(std::move(*scenarios), options.seed, kCampaignBatches);
  };
  run.TimeSetup(setup);
  if (!status.ok()) {
    Problem(run, "campaign manifest: " + status.message());
    return run;
  }

  CampaignOptions campaign_options;
  campaign_options.name = name;
  campaign_options.threads = options.threads;
  campaign_options.triage = true;
  std::map<int, uint64_t> digests;
  CallWalls walls;
  int calls = 0;
  int passed = 0;
  int expected_failures = 0;
  uint64_t template_hits = 0;
  uint64_t template_misses = 0;
  ResetPeakRss();
  const int64_t pass_start = NowNs();
  const int64_t deadline =
      pass_start + static_cast<int64_t>(options.seconds * 1e9);
  while (true) {
    const int b = calls++ % kCampaignBatches;
    const int64_t start = NowNs();
    CampaignReport report =
        CampaignRunner(campaign_options).Run(batches[static_cast<size_t>(b)]);
    const double wall_s = static_cast<double>(NowNs() - start) * 1e-9;
    walls.Add(b, wall_s);
    const bool same = SameDigest(digests, b, report.Digest());
    const int bad =
        same ? report.skipped + report.unexpected : report.scenarios;
    run.ops.AddMany(static_cast<uint64_t>(report.scenarios),
                    static_cast<uint64_t>(bad));
    if (bad > 0) {
      Problem(run, "batch " + std::to_string(b) + ": " +
                       std::to_string(report.skipped) + " skipped, " +
                       std::to_string(report.unexpected) + " unexpected" +
                       (same ? "" : ", report digest changed"));
      for (const FailureBucket& bucket : report.buckets) {
        if (!bucket.expected) {
          Problem(run, "  unexpected bucket " + bucket.key + " e.g. " +
                           bucket.representative);
        }
      }
    }
    run.AddCall(report.scenarios,
                Counter(report.metrics.counters, "rt.fast_loops") / kFastLoopHz,
                wall_s);
    passed += report.passed;
    expected_failures += report.failed - report.unexpected;
    template_hits += report.template_hits;
    template_misses += report.template_misses;
    if (NowNs() >= deadline) {
      break;
    }
    run.InterleaveSetup(setup, pass_start);
  }
  run.peak_rss_mb = PeakRssMb();
  if (!status.ok()) {
    Problem(run, "campaign manifest: " + status.message());
  }

  run.detail.Add("campaign.scenarios_per_s",
                 static_cast<double>(run.ops.attempted) / run.wall_s, "1/s");
  run.detail.Add("campaign.passed", passed, "count");
  run.detail.Add("campaign.expected_failures", expected_failures, "count");
  run.detail.Add("campaign.template_hit_ratio",
                 static_cast<double>(template_hits) /
                     static_cast<double>(template_hits + template_misses),
                 "ratio");
  for (const auto& [b, digest] : digests) {
    run.notes.push_back("campaign batch " + std::to_string(b) + " (" +
                        std::to_string(batches[static_cast<size_t>(b)].size()) +
                        " scenarios) report digest " + Hex(digest));
  }

  if (options.trace) {
    const int traced = std::min(calls, kTracedCalls);
    double traced_s = 0;
    double untraced_s = 0;
    double events = 0;
    double retried = 0;
    for (int b = 0; b < traced; ++b) {
      const int id = run.spans.Begin("CampaignRunner::Run", -1, b);
      const int64_t start = NowNs();
      CampaignReport report =
          CampaignRunner(campaign_options).Run(batches[static_cast<size_t>(b)]);
      traced_s += static_cast<double>(NowNs() - start) * 1e-9;
      run.spans.End(id);
      untraced_s += walls.Reference(b);
      if (!SameDigest(digests, b, report.Digest())) {
        Problem(run, "traced batch " + std::to_string(b) +
                         " changed its report digest");
      }
      const double batch_events =
          Counter(report.metrics.counters, "world.events_run");
      run.spans.Count(id, "scenarios", report.scenarios);
      run.spans.Count(id, "events_run", batch_events);
      run.spans.Count(id, "fast_loops",
                      Counter(report.metrics.counters, "rt.fast_loops"));
      run.spans.Count(id, "buckets",
                      static_cast<double>(report.buckets.size()));
      events += batch_events;
      retried += Counter(report.metrics.counters, "fleet.worlds_retried");
    }
    AddTracedPassMetrics(run, traced_s, untraced_s, events,
                         traced_s * 1e9 * options.threads, retried);
  }
  return run;
}

// ----------------------------------------------------------------- serve

WorkloadRun RunServe(const BenchOptions& options) {
  WorkloadRun run;
  TenantMixSpec mix;
  std::vector<ControlPlaneConfig> configs;
  std::map<int, uint64_t> digests;

  // Set-up: the builtin mix through its manifest round trip, the configs,
  // and one warm-up Serve whose report digest later calls must repeat.
  Status status;
  const std::function<void()> setup = [&] {
    StatusOr<TenantMixSpec> parsed =
        ParseTenantMix(DumpTenantMix(BuiltinTenantMix()));
    if (!parsed.ok()) {
      status = parsed.status();
      return;
    }
    mix = *parsed;
    configs.clear();
    for (int p = 0; p < kServeSeeds; ++p) {
      configs.push_back(
          ServeConfig(SplitMix64(options.seed + p), kServeShards));
    }
    if (!SameDigest(digests, 0,
                    ControlPlaneRouter(configs[0]).Serve(mix).Digest())) {
      Problem(run, "set-up Serve changed its report digest");
    }
  };
  run.TimeSetup(setup);
  if (!status.ok()) {
    Problem(run, "tenant mix: " + status.message());
    return run;
  }

  CallWalls walls;
  int calls = 0;
  int billed = 0, rejected = 0, cancelled = 0, failed = 0, slo_failures = 0;
  ResetPeakRss();
  const int64_t pass_start = NowNs();
  const int64_t deadline =
      pass_start + static_cast<int64_t>(options.seconds * 1e9);
  while (true) {
    const int p = calls++ % kServeSeeds;
    const int64_t start = NowNs();
    ControlPlaneReport report =
        ControlPlaneRouter(configs[static_cast<size_t>(p)]).Serve(mix);
    const double wall_s = static_cast<double>(NowNs() - start) * 1e-9;
    walls.Add(p, wall_s);
    const bool same = SameDigest(digests, p, report.Digest());
    const uint64_t bad =
        same ? static_cast<uint64_t>(report.settlement_errors) +
                   report.admission_violations
             : static_cast<uint64_t>(report.sessions);
    run.ops.AddMany(static_cast<uint64_t>(report.sessions), bad);
    if (bad > 0) {
      Problem(run, "serve seed " + std::to_string(p) + ": " +
                       std::to_string(report.settlement_errors) +
                       " settlement errors, " +
                       std::to_string(report.admission_violations) +
                       " admission violations" +
                       (same ? "" : ", report digest changed"));
    }
    run.AddCall(report.sessions, report.makespan_s, wall_s);
    billed += report.billed;
    rejected += report.rejected;
    cancelled += report.cancelled;
    failed += report.failed;
    slo_failures += static_cast<int>(report.slo_failures.size());
    if (NowNs() >= deadline) {
      break;
    }
    run.InterleaveSetup(setup, pass_start);
  }
  run.peak_rss_mb = PeakRssMb();
  if (!status.ok()) {
    Problem(run, "tenant mix: " + status.message());
  }

  run.detail.Add("serve.sessions_per_wall_s",
                 static_cast<double>(run.ops.attempted) / run.wall_s, "1/s");
  run.detail.Add("serve.billed", billed, "count");
  run.detail.Add("serve.rejected", rejected, "count");
  run.detail.Add("serve.cancelled", cancelled, "count");
  run.detail.Add("serve.failed_sessions", failed, "count");
  run.detail.Add("serve.slo_failures", slo_failures, "count");
  for (const auto& [p, digest] : digests) {
    const ControlPlaneConfig& config = configs[static_cast<size_t>(p)];
    run.notes.push_back("serve seed " + std::to_string(p) + " (" +
                        std::to_string(config.load.sessions) +
                        " sessions) report digest " + Hex(digest));
  }

  if (options.trace) {
    const int traced = std::min(calls, kTracedCalls);
    double traced_s = 0;
    double untraced_s = 0;
    double events = 0;
    double shard_ns = 0;
    double retried = 0;
    for (int p = 0; p < traced; ++p) {
      const ControlPlaneConfig& config = configs[static_cast<size_t>(p)];
      const int id = run.spans.Begin("ControlPlaneRouter::Serve", -1, p);
      const int64_t start = NowNs();
      ControlPlaneReport report = ControlPlaneRouter(config).Serve(mix);
      traced_s += static_cast<double>(NowNs() - start) * 1e-9;
      run.spans.End(id);
      untraced_s += walls.Reference(p);
      if (!SameDigest(digests, p, report.Digest())) {
        Problem(run, "traced Serve " + std::to_string(p) +
                         " changed its report digest");
      }
      run.spans.Count(id, "sessions", report.sessions);
      retried += Counter(report.metrics.counters, "fleet.worlds_retried");
      // The router hides shard clocks; the same shards served one by one
      // give the event count of this very call.
      const int split_id = run.spans.Begin("serve.split", -1, p);
      ServeSplit split = SplitServe(config, mix, run.spans, split_id);
      run.spans.End(split_id);
      for (const std::string& problem : CheckServeSplit(split, report)) {
        Problem(run, problem);
      }
      events += static_cast<double>(split.events);
      for (double ms : split.shard_ms) {
        shard_ns += ms * 1e6;
      }
    }
    AddTracedPassMetrics(run, traced_s, untraced_s, events, shard_ns, retried);
  }
  return run;
}

}  // namespace

void WorkloadRun::TimeSetup(const std::function<void()>& setup) {
  const int64_t start = NowNs();
  int64_t now = start;
  int count = 0;
  do {
    setup();
    ++count;
    now = NowNs();
  } while (now - start < kSetupSampleNs);
  setup_samples.push_back({static_cast<double>(now - start) * 1e-9, count});
}

void WorkloadRun::InterleaveSetup(const std::function<void()>& setup,
                                  int64_t pass_start_ns) {
  const double elapsed_s = static_cast<double>(NowNs() - pass_start_ns) * 1e-9;
  if (interleaved_setup_s < kInterleavedSetupShare * elapsed_s) {
    TimeSetup(setup);
    interleaved_setup_s += setup_samples.back().first;
  }
}

double WorkloadRun::SetupSeconds() const {
  const size_t n = setup_samples.size();
  const size_t slices = std::min(kSetupSlices, n);
  std::vector<double> per_setup;
  for (size_t k = 0; k < slices; ++k) {
    double wall_s = 0;
    int count = 0;
    for (size_t i = k * n / slices; i < (k + 1) * n / slices; ++i) {
      wall_s += setup_samples[i].first;
      count += setup_samples[i].second;
    }
    per_setup.push_back(wall_s / count);
  }
  return Median(per_setup);
}

double ElapsedMs(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

double Counter(const std::map<std::string, double>& counters,
               const char* name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

PoolPass RunPool(const WorldPool& pool, int slots,
                 const ConfigFor& config_for) {
  PoolPass pass;
  pass.start_ns.resize(static_cast<size_t>(slots));
  pass.end_ns.resize(static_cast<size_t>(slots));
  FleetOptions options;
  options.threads = 1;
  options.base_seed = pool.base_seed;
  FleetExecutor executor(options);
  const int64_t start = NowNs();
  pass.report = executor.Run(slots, [&](const WorldContext& ctx) {
    const FleetWorldConfig config = config_for(ctx.index);
    const size_t i = static_cast<size_t>(ctx.index);
    pass.start_ns[i] = NowNs();
    WorldResult result = RunFleetWorld(config, ctx);
    pass.end_ns[i] = NowNs();
    return result;
  });
  pass.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return pass;
}

FleetWorldConfig WorldConfig(int tenants, WorldTemplateCache* templates) {
  FleetWorldConfig config;
  config.tenants = tenants;
  config.templates = templates;
  return config;
}

WorldPool MakeWorldPool(uint64_t seed, int size) {
  WorldPool pool;
  pool.base_seed = SplitMix64(seed ^ 0x776f726c64ULL);
  for (int i = 0; i < size; ++i) {
    pool.tenants.push_back(1 + i % 3);
  }
  Rng rng(pool.base_seed);
  for (int i = size - 1; i > 0; --i) {
    std::swap(pool.tenants[static_cast<size_t>(i)],
              pool.tenants[rng.NextU64Below(static_cast<uint64_t>(i) + 1)]);
  }
  return pool;
}

uint64_t ReplayLogFingerprint(const std::string& bytes) {
  // Header: magic u64, version u32, seed u64, fingerprint u64.
  SnapshotReader r(bytes);
  uint64_t magic = 0;
  uint32_t version = 0;
  uint64_t seed = 0;
  uint64_t fingerprint = 0;
  (void)r.U64(&magic);
  (void)r.U32(&version);
  (void)r.U64(&seed);
  (void)r.U64(&fingerprint);
  return fingerprint;
}

StatusOr<CampaignSpec> LoadCampaign(const std::string& manifest_path) {
  std::ifstream in(manifest_path);
  if (!in) {
    return NotFoundError("cannot open campaign manifest " + manifest_path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseCampaignManifest(text.str());
}

ControlPlaneConfig ServeConfig(uint64_t seed, int shards) {
  ControlPlaneConfig config;
  config.seed = seed;
  config.threads = 1;
  config.shards = shards;
  config.fly_mode = FlyMode::kModel;
  config.load.sessions = 150 * shards;
  config.load.arrival_window_s = 40;
  config.admission.boards = 8;
  config.admission.queue_capacity = 512;
  return config;
}

ServeSplit SplitServe(const ControlPlaneConfig& config,
                      const TenantMixSpec& mix, SpanRecorder& spans,
                      int parent) {
  ServeSplit split;
  LoadSpec load = config.load;
  load.base_seed = config.seed;
  int64_t start = NowNs();
  const int gen = spans.Begin("GenerateLoad", parent, -1);
  const std::vector<SessionSpec> sessions = GenerateLoad(mix, load);
  spans.End(gen);
  split.load_gen_ms = ElapsedMs(start);
  split.sessions = sessions.size();

  const int shards = std::max(1, config.shards);
  std::vector<std::vector<SessionSpec>> shard_sessions(
      static_cast<size_t>(shards));
  for (const SessionSpec& s : sessions) {
    shard_sessions[s.id % static_cast<uint64_t>(shards)].push_back(s);
  }
  for (int i = 0; i < shards; ++i) {
    FleetManagerConfig mc;
    mc.shard = i;
    mc.seed = FleetExecutor::WorldSeed(config.seed, i);
    mc.fly_mode = config.fly_mode;
    mc.admission = config.admission;
    mc.launch_hold_s = config.launch_hold_s;
    mc.recovery_delay_s = config.recovery_delay_s;
    FleetManager manager(mc);
    start = NowNs();
    const int id = spans.Begin("FleetManager::Serve", parent, i);
    const ShardOutcome outcome =
        manager.Serve(shard_sessions[static_cast<size_t>(i)]);
    spans.End(id);
    split.shard_ms.push_back(ElapsedMs(start));
    spans.Count(id, "sessions", static_cast<double>(outcome.records.size()));
    spans.Count(id, "events_run", static_cast<double>(outcome.events_run));
    split.records += outcome.records.size();
    split.events += outcome.events_run;
    split.admitted += Counter(outcome.metrics.counters, "ctrl.admitted");
    split.queued += Counter(outcome.metrics.counters, "ctrl.queued");
    split.boards_launched +=
        Counter(outcome.metrics.counters, "ctrl.boards_launched");
    for (const SessionRecord& record : outcome.records) {
      switch (record.state) {
        case OrderState::kBilled:
          ++split.billed;
          break;
        case OrderState::kRejected:
          ++split.rejected;
          break;
        case OrderState::kCancelled:
          ++split.cancelled;
          break;
        case OrderState::kFailed:
          ++split.failed;
          break;
        default:
          break;  // Not terminal: the record-count check below trips.
      }
    }
  }
  return split;
}

std::vector<std::string> CheckServeSplit(const ServeSplit& split,
                                         const ControlPlaneReport& report) {
  std::vector<std::string> problems;
  if (split.records != split.sessions ||
      split.sessions != static_cast<uint64_t>(report.sessions)) {
    problems.push_back("serve split: shard records " +
                       std::to_string(split.records) + ", load " +
                       std::to_string(split.sessions) + ", report " +
                       std::to_string(report.sessions));
  }
  if (split.billed != report.billed || split.rejected != report.rejected ||
      split.cancelled != report.cancelled || split.failed != report.failed) {
    problems.push_back("serve split: shard terminal states differ from "
                       "Serve's counts");
  }
  return problems;
}

bool IsWorkload(const std::string& name) {
  return name == "world" || name == "replay" || name == "campaign" ||
         name == "serve";
}

WorkloadRun RunWorkload(const BenchOptions& options) {
  if (options.workload == "world") {
    return RunWorld(options);
  }
  if (options.workload == "replay") {
    return RunReplay(options);
  }
  if (options.workload == "campaign") {
    return RunCampaign(options);
  }
  return RunServe(options);
}

}  // namespace androne::perfbench
