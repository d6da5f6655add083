#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/fleet_executor.h"
#include "src/exec/fleet_world.h"
#include "src/exec/world_template.h"
#include "src/hw/sensor_faults.h"
#include "src/net/fault_injector.h"
#include "src/obs/trace.h"
#include "src/replay/replay_log.h"
#include "src/snapshot/checkpoint.h"

namespace androne {
namespace {

// --- FleetExecutor ---

WorldResult CountingWorld(const WorldContext& ctx) {
  WorldResult result;
  result.completed = true;
  result.events_run = 10;
  result.digest = ctx.seed;
  result.metrics.counters["index_sum"] = ctx.index;
  Histogram h;
  h.Record(ctx.index + 1);
  result.metrics.histograms["values"] = h;
  return result;
}

TEST(FleetExecutorTest, WorldSeedDependsOnlyOnBaseSeedAndIndex) {
  EXPECT_EQ(FleetExecutor::WorldSeed(7, 3), FleetExecutor::WorldSeed(7, 3));
  EXPECT_NE(FleetExecutor::WorldSeed(7, 3), FleetExecutor::WorldSeed(7, 4));
  EXPECT_NE(FleetExecutor::WorldSeed(7, 3), FleetExecutor::WorldSeed(8, 3));
  EXPECT_NE(FleetExecutor::WorldSeed(7, 0), 7u);  // Index 0 is mixed too.
}

TEST(FleetExecutorTest, MergesCountersHistogramsAndEvents) {
  FleetOptions options;
  options.threads = 3;
  FleetExecutor executor(options);
  FleetReport report = executor.Run(6, CountingWorld);
  EXPECT_EQ(report.completed, 6);
  EXPECT_EQ(report.cancelled, 0);
  EXPECT_EQ(report.events_run, 60u);
  EXPECT_DOUBLE_EQ(report.metrics.counters.at("index_sum"),
                   0 + 1 + 2 + 3 + 4 + 5);
  EXPECT_EQ(report.metrics.histograms.at("values").total_count(), 6u);
  ASSERT_EQ(report.worlds.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(report.worlds[i].index, i);  // Index order, not finish order.
  }
}

TEST(FleetExecutorTest, FleetDigestIsThreadCountInvariant) {
  // 0 clamps to one worker; 16 leaves workers with no world to claim.
  const int thread_counts[] = {1, 0, 2, 8, 16};
  uint64_t digests[5];
  for (int t = 0; t < 5; ++t) {
    FleetOptions options;
    options.threads = thread_counts[t];
    options.base_seed = 99;
    FleetExecutor executor(options);
    FleetReport report = executor.Run(8, CountingWorld);
    EXPECT_EQ(report.completed, 8) << "threads=" << thread_counts[t];
    digests[t] = report.fleet_digest;
  }
  for (int t = 1; t < 5; ++t) {
    EXPECT_EQ(digests[0], digests[t]) << "threads=" << thread_counts[t];
  }
}

TEST(FleetExecutorTest, WallBudgetSkipsUnstartedWorlds) {
  FleetOptions options;
  options.threads = 1;  // Serialize so later worlds start after the budget.
  options.wall_budget_ms = 20;
  FleetExecutor executor(options);
  FleetReport report = executor.Run(50, [](const WorldContext& ctx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    WorldResult r;
    r.completed = !ctx.ShouldCancel();
    return r;
  });
  EXPECT_GT(report.cancelled, 0);
  EXPECT_LT(report.completed, 50);
  EXPECT_EQ(report.completed + report.cancelled, 50);
  // Never-ran worlds are tracked separately from started-then-cancelled
  // ones, and the per-world flags must agree with the fleet tally.
  EXPECT_GT(report.skipped, 0);
  EXPECT_LE(report.skipped, report.cancelled);
  int skipped_worlds = 0;
  for (const WorldResult& world : report.worlds) {
    if (world.skipped) {
      ++skipped_worlds;
      EXPECT_FALSE(world.completed);
    }
  }
  EXPECT_EQ(report.skipped, skipped_worlds);
  ASSERT_NE(report.metrics.counters.find("fleet.worlds_skipped"),
            report.metrics.counters.end());
  EXPECT_DOUBLE_EQ(report.metrics.counters.at("fleet.worlds_skipped"),
                   static_cast<double>(report.skipped));
}

// --- Fleet world determinism (the satellite check): the same fleet config
// must produce identical per-world flight-log/histogram digests at 1, 2,
// and 8 threads. ---

TEST(FleetWorldTest, DigestsAreIdenticalAcrossThreadCounts) {
  FleetWorldConfig config;
  config.tenants = 1;
  config.dwell_s = 5;
  config.annealing_iterations = 50;
  const int kWorlds = 3;

  std::vector<FleetReport> reports;
  for (int threads : {1, 2, 8}) {
    FleetOptions options;
    options.threads = threads;
    options.base_seed = 2026;
    FleetExecutor executor(options);
    reports.push_back(executor.Run(kWorlds, MakeFleetWorld(config)));
  }

  for (const FleetReport& report : reports) {
    ASSERT_EQ(report.completed, kWorlds);
  }
  for (size_t t = 1; t < reports.size(); ++t) {
    EXPECT_EQ(reports[0].fleet_digest, reports[t].fleet_digest);
    EXPECT_EQ(reports[0].events_run, reports[t].events_run);
    for (int w = 0; w < kWorlds; ++w) {
      // Per-world flight-log + downlink digest, bit-identical.
      EXPECT_EQ(reports[0].worlds[w].digest, reports[t].worlds[w].digest)
          << "world " << w << " diverged at thread count index " << t;
      EXPECT_EQ(reports[0].worlds[w].events_run,
                reports[t].worlds[w].events_run);
    }
    // Merged histogram digests match because merge order is index order.
    ASSERT_EQ(reports[0].metrics.histograms.size(),
              reports[t].metrics.histograms.size());
    for (const auto& [name, hist] : reports[0].metrics.histograms) {
      EXPECT_EQ(hist.Digest(), reports[t].metrics.histograms.at(name).Digest())
          << "merged histogram " << name;
    }
  }
}

TEST(FleetWorldTest, DifferentSeedsFlyDifferentWorlds) {
  FleetWorldConfig config;
  config.tenants = 1;
  config.dwell_s = 5;
  config.annealing_iterations = 50;
  FleetOptions a;
  a.base_seed = 1;
  FleetOptions b;
  b.base_seed = 2;
  FleetReport ra = FleetExecutor(a).Run(1, MakeFleetWorld(config));
  FleetReport rb = FleetExecutor(b).Run(1, MakeFleetWorld(config));
  ASSERT_EQ(ra.completed, 1);
  ASSERT_EQ(rb.completed, 1);
  EXPECT_NE(ra.worlds[0].digest, rb.worlds[0].digest);
}

TEST(FleetWorldTest, WorldReportsFlightAndDownlinkCounters) {
  FleetWorldConfig config;
  config.tenants = 2;
  config.dwell_s = 5;
  config.annealing_iterations = 50;
  FleetOptions options;
  options.base_seed = 77;
  FleetReport report = FleetExecutor(options).Run(1, MakeFleetWorld(config));
  ASSERT_EQ(report.completed, 1);
  const WorldResult& world = report.worlds[0];
  EXPECT_TRUE(world.completed);
  EXPECT_GT(world.events_run, 0u);
  EXPECT_DOUBLE_EQ(world.counters.at("waypoints_visited"), 2.0);
  EXPECT_GT(world.counters.at("flight_time_s"), 0.0);
  EXPECT_GT(world.counters.at("battery_used_j"), 0.0);
  EXPECT_GT(world.counters.at("downlink_frames"), 0.0);
  EXPECT_GT(report.metrics.histograms.at("downlink_latency_us").total_count(),
            0u);
}

TEST(FleetWorldTest, TelemetryBatchingPreservesTheFlightDigest) {
  // Batching repacks datagrams; it must never move the flight itself. The
  // attitude-log digest is the invariant, while the datagram count should
  // visibly drop.
  FleetWorldConfig config;
  config.tenants = 2;
  config.dwell_s = 5;
  config.annealing_iterations = 50;
  WorldContext ctx;
  ctx.index = 0;
  ctx.seed = FleetExecutor::WorldSeed(77, 0);

  config.batch_telemetry = false;
  WorldResult unbatched = RunFleetWorld(config, ctx);
  config.batch_telemetry = true;
  WorldResult batched = RunFleetWorld(config, ctx);

  ASSERT_TRUE(unbatched.completed);
  ASSERT_TRUE(batched.completed);
  EXPECT_NE(batched.flight_digest, 0u);
  EXPECT_EQ(batched.flight_digest, unbatched.flight_digest);
  // Same telemetry stream, fewer datagrams on the wire.
  EXPECT_EQ(batched.counters.at("wire_frames"),
            unbatched.counters.at("wire_frames"));
  EXPECT_LT(batched.counters.at("downlink_flushes"),
            unbatched.counters.at("downlink_flushes"));
}

// --- World templates (boot-once/fork-many, DESIGN.md §14) ---

TEST(WorldTemplateTest, CloneEqualsColdBootAcrossSeedsThreadsAndTracing) {
  // The acceptance matrix: seed x thread count x traced/untraced. A
  // templated fleet (one cold boot per row, the rest cloned from the
  // template blob) must be bit-identical to the template-less fleet —
  // fleet digest, per-world digest/flight digest, metrics, trace export.
  const int kWorlds = 4;
  for (uint64_t base_seed : {uint64_t{2026}, uint64_t{901}}) {
    for (uint32_t categories : {uint32_t{0}, uint32_t{0xffffffffu}}) {
      FleetWorldConfig config;
      config.tenants = 1;
      config.dwell_s = 5;
      config.annealing_iterations = 50;
      config.trace_categories = categories;

      FleetOptions cold_options;
      cold_options.threads = 1;
      cold_options.base_seed = base_seed;
      FleetReport cold =
          FleetExecutor(cold_options).Run(kWorlds, MakeFleetWorld(config));
      ASSERT_EQ(cold.completed, kWorlds);

      for (int threads : {1, 2, 8}) {
        const std::string label = "seed " + std::to_string(base_seed) +
                                  (categories != 0 ? " traced" : " untraced") +
                                  " threads " + std::to_string(threads);
        WorldTemplateCache templates;
        FleetWorldConfig cloned_config = config;
        cloned_config.templates = &templates;
        FleetOptions options;
        options.threads = threads;
        options.base_seed = base_seed;
        FleetReport cloned =
            FleetExecutor(options).Run(kWorlds, MakeFleetWorld(cloned_config));
        ASSERT_EQ(cloned.completed, kWorlds) << label;
        // The blocking builder protocol makes reuse counts deterministic at
        // any thread count: exactly one miss per boot family.
        EXPECT_EQ(templates.misses(), 1u) << label;
        EXPECT_EQ(templates.hits(), static_cast<uint64_t>(kWorlds - 1))
            << label;
        EXPECT_EQ(cloned.worlds_cloned, kWorlds - 1) << label;
        EXPECT_EQ(cloned.templates_built, 1) << label;
        EXPECT_EQ(cloned.fleet_digest, cold.fleet_digest) << label;
        EXPECT_EQ(cloned.events_run, cold.events_run) << label;
        for (int w = 0; w < kWorlds; ++w) {
          const WorldResult& a = cold.worlds[w];
          const WorldResult& b = cloned.worlds[w];
          EXPECT_EQ(a.digest, b.digest) << label << " world " << w;
          EXPECT_EQ(a.flight_digest, b.flight_digest)
              << label << " world " << w;
          EXPECT_EQ(a.counters, b.counters) << label << " world " << w;
          EXPECT_EQ(a.metrics.ToText(), b.metrics.ToText())
              << label << " world " << w;
          EXPECT_EQ(a.trace_text, b.trace_text) << label << " world " << w;
        }
      }
    }
  }
}

TEST(WorldTemplateTest, BootRelevantKnobsInvalidateTheTemplate) {
  // The cache keys on boot-relevant knobs only: a config differing in one
  // must cold-boot its own template, while post-boundary mission knobs
  // (tenants, dwell) share the boot family — and the shared-template clone
  // is still digest-identical to its own cold-booted twin.
  WorldTemplateCache templates;
  WorldContext ctx;
  ctx.index = 0;
  ctx.seed = FleetExecutor::WorldSeed(77, 0);

  FleetWorldConfig base;
  base.tenants = 1;
  base.dwell_s = 5;
  base.annealing_iterations = 50;
  base.templates = &templates;

  WorldResult first = RunFleetWorld(base, ctx);
  ASSERT_TRUE(first.completed);
  EXPECT_EQ(templates.misses(), 1u);
  EXPECT_TRUE(first.provision.built_template);

  // Boot-relevant: the memory budget shapes the booted board.
  FleetWorldConfig budget = base;
  budget.memory_budget_mb = 2048;
  ASSERT_TRUE(RunFleetWorld(budget, ctx).completed);
  EXPECT_EQ(templates.misses(), 2u);

  // Boot-relevant: tracing records the boot warmup into the template.
  FleetWorldConfig traced = base;
  traced.trace_categories = kTraceAll;
  ASSERT_TRUE(RunFleetWorld(traced, ctx).completed);
  EXPECT_EQ(templates.misses(), 3u);
  EXPECT_EQ(templates.hits(), 0u);

  // Post-boundary mission shape: shares the first boot family...
  FleetWorldConfig mission = base;
  mission.tenants = 2;
  mission.dwell_s = 8;
  WorldResult cloned = RunFleetWorld(mission, ctx);
  ASSERT_TRUE(cloned.completed);
  EXPECT_EQ(templates.misses(), 3u);
  EXPECT_EQ(templates.hits(), 1u);
  EXPECT_TRUE(cloned.provision.cloned);

  // ...and the clone is exactly the world a cold boot would have flown.
  FleetWorldConfig mission_cold = mission;
  mission_cold.templates = nullptr;
  WorldResult cold = RunFleetWorld(mission_cold, ctx);
  ASSERT_TRUE(cold.completed);
  EXPECT_EQ(cloned.digest, cold.digest);
  EXPECT_EQ(cloned.flight_digest, cold.flight_digest);
  EXPECT_EQ(cloned.counters, cold.counters);
  EXPECT_EQ(cloned.metrics.ToText(), cold.metrics.ToText());
}

// Every FleetWorldConfig field carries one tag (DESIGN.md §14): changing a
// boot field moves both fingerprints, a world field only ConfigFingerprint,
// and a runtime field neither.
TEST(ConfigFingerprintTest, EveryFieldMovesTheFingerprintsItsTagNames) {
  enum Tag { kBoot, kWorld, kRuntime };
  struct Case {
    const char* field;
    Tag tag;
    std::function<void(FleetWorldConfig&)> base;
    std::function<void(FleetWorldConfig&)> mutate;
  };
  auto none = [](FleetWorldConfig&) {};

  FaultPlan outage;
  ASSERT_TRUE(outage.AddOutage(Seconds(8), Seconds(3)).ok());
  FaultPlan burst;
  ASSERT_TRUE(burst.AddBurstLoss(Seconds(8), Seconds(3), 0.5).ok());
  SensorFaultPlan late_a;  // Windows after the 2 s boot warmup.
  ASSERT_TRUE(late_a.AddDropout(SensorChannel::kGps, Seconds(10), Seconds(2)).ok());
  SensorFaultPlan late_b;
  ASSERT_TRUE(late_b.AddDropout(SensorChannel::kGps, Seconds(12), Seconds(2)).ok());
  SensorFaultPlan early;  // A window inside the warmup.
  ASSERT_TRUE(early.AddDropout(SensorChannel::kGps, Seconds(1), Seconds(2)).ok());
  TraceRecorder recorder(kTraceAll, 64);
  WorldTemplateCache cache;
  ReplayLogStore logs;
  CheckpointStore sink;
  const std::string blob = "checkpoint";

  const std::vector<Case> cases = {
      {"tenants", kWorld, none, [](auto& c) { c.tenants = 3; }},
      {"dwell_s", kWorld, none, [](auto& c) { c.dwell_s = 7; }},
      {"waypoint_spread_m", kWorld, none,
       [](auto& c) { c.waypoint_spread_m = 50; }},
      {"tenant_placements", kWorld, none,
       [](auto& c) { c.tenant_placements.resize(2); }},
      {"tenant_placements[].east_m", kWorld,
       [](auto& c) { c.tenant_placements.resize(2); },
       [](auto& c) { c.tenant_placements[1].east_m = 9; }},
      {"annealing_iterations", kWorld, none,
       [](auto& c) { c.annealing_iterations = 10; }},
      {"batch_telemetry", kWorld, none,
       [](auto& c) { c.batch_telemetry = false; }},
      {"memory_budget_mb", kBoot, none,
       [](auto& c) { c.memory_budget_mb = 2048; }},
      {"trace_categories", kBoot, none,
       [](auto& c) { c.trace_categories = kTraceAll; }},
      {"trace_capacity", kBoot, none, [](auto& c) { c.trace_capacity = 99; }},
      {"trace", kRuntime, none, [&](auto& c) { c.trace = &recorder; }},
      {"downlink_profile", kWorld, none,
       [](auto& c) { c.downlink_profile = LinkProfile::kWired; }},
      {"net_faults", kWorld, none, [&](auto& c) { c.net_faults = &outage; }},
      {"net_faults windows", kWorld, [&](auto& c) { c.net_faults = &outage; },
       [&](auto& c) { c.net_faults = &burst; }},
      {"sensor_faults", kBoot, none,
       [&](auto& c) { c.sensor_faults = &late_a; }},
      {"sensor_faults windows after warmup", kWorld,
       [&](auto& c) { c.sensor_faults = &late_a; },
       [&](auto& c) { c.sensor_faults = &late_b; }},
      {"sensor_faults windows in warmup", kBoot,
       [&](auto& c) { c.sensor_faults = &late_a; },
       [&](auto& c) { c.sensor_faults = &early; }},
      {"crash_loop.count", kWorld, none, [](auto& c) { c.crash_loop.count = 2; }},
      {"crash_loop.start_s", kWorld, none,
       [](auto& c) { c.crash_loop.start_s = 1; }},
      {"crash_loop.period_s", kWorld, none,
       [](auto& c) { c.crash_loop.period_s = 1; }},
      {"crash_loop.max_restarts", kWorld, none,
       [](auto& c) { c.crash_loop.max_restarts = 1; }},
      {"checkpoint", kRuntime, none,
       [](auto& c) { c.checkpoint.at_phase_boundaries = true; }},
      {"crash_at_s", kWorld, none, [](auto& c) { c.crash_at_s = {4}; }},
      {"max_restores", kRuntime, none, [](auto& c) { c.max_restores = 9; }},
      {"tolerate_deploy_rejection", kWorld, none,
       [](auto& c) { c.tolerate_deploy_rejection = true; }},
      {"templates", kRuntime, none, [&](auto& c) { c.templates = &cache; }},
      {"record_into", kRuntime, none, [&](auto& c) { c.record_into = &logs; }},
      {"replay_from", kRuntime, none, [&](auto& c) { c.replay_from = &logs; }},
      {"fork_blob", kRuntime, none, [&](auto& c) { c.fork_blob = &blob; }},
      {"fork_reseed", kRuntime, none, [](auto& c) { c.fork_reseed = 5; }},
      {"checkpoint_sink", kRuntime, none,
       [&](auto& c) { c.checkpoint_sink = &sink; }},
  };
  for (const Case& test : cases) {
    FleetWorldConfig base;
    test.base(base);
    FleetWorldConfig mutated = base;
    test.mutate(mutated);
    EXPECT_EQ(TemplateFingerprint(base) != TemplateFingerprint(mutated),
              test.tag == kBoot)
        << test.field;
    EXPECT_EQ(ConfigFingerprint(base) != ConfigFingerprint(mutated),
              test.tag != kRuntime)
        << test.field;
  }
}

}  // namespace
}  // namespace androne
