// Crash-recovery equivalence (DESIGN.md §13): a fleet world killed
// mid-flight by the crash fault family, restored from its latest checkpoint
// and replayed, must be bit-identical to the uninterrupted run at the same
// seed — same digest, same trace export, same metrics — at any crash point,
// any checkpoint cadence, and any executor thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/exec/fleet_executor.h"
#include "src/exec/fleet_world.h"
#include "src/exec/world_template.h"
#include "src/hw/sensor_faults.h"
#include "src/obs/trace.h"
#include "src/snapshot/checkpoint.h"
#include "tests/snapshot_fixtures.h"

namespace androne {
namespace {

FleetWorldConfig BaseConfig() {
  FleetWorldConfig config;
  config.tenants = 2;
  config.dwell_s = 10;
  config.annealing_iterations = 120;
  // Trace everything so the equivalence check covers the trace ring too.
  config.trace_categories = kTraceAll;
  return config;
}

WorldContext MakeContext(uint64_t seed) {
  WorldContext ctx;
  ctx.index = 0;
  ctx.seed = seed;
  return ctx;
}

// The two checkpoint cadences the acceptance matrix sweeps: phase-boundary
// captures and a pure periodic cadence.
CheckpointPolicy PhaseBoundaryCadence() {
  CheckpointPolicy policy;
  policy.period_s = 0;
  policy.at_phase_boundaries = true;
  return policy;
}

CheckpointPolicy PeriodicCadence() {
  CheckpointPolicy policy;
  policy.period_s = 4;
  policy.at_phase_boundaries = false;
  return policy;
}

// A crash-looped payload container: it crashes at 6, 12 and 18 s and its
// supervisor restarts it after a backoff that grows with the streak.
FleetWorldConfig CrashLoopConfig() {
  FleetWorldConfig config = BaseConfig();
  config.crash_loop.count = 3;
  config.crash_loop.start_s = 4;
  config.crash_loop.period_s = 6;
  return config;
}

void ExpectEquivalent(const WorldResult& baseline, const WorldResult& run,
                      const std::string& label) {
  EXPECT_EQ(baseline.completed, run.completed) << label;
  EXPECT_EQ(baseline.digest, run.digest) << label;
  EXPECT_EQ(baseline.flight_digest, run.flight_digest) << label;
  EXPECT_EQ(baseline.events_run, run.events_run) << label;
  EXPECT_EQ(baseline.counters, run.counters) << label;
  EXPECT_EQ(baseline.metrics.Digest(), run.metrics.Digest()) << label;
  EXPECT_EQ(baseline.metrics.ToText(), run.metrics.ToText()) << label;
  EXPECT_EQ(baseline.trace_text, run.trace_text) << label;
}

TEST(RecoveryEquivalenceTest, CheckpointingAloneDoesNotMoveTheWorld) {
  // Captures are pure reads: a world that checkpoints but never crashes is
  // byte-identical to one that never checkpoints.
  WorldResult plain = RunFleetWorld(BaseConfig(), MakeContext(11));
  ASSERT_TRUE(plain.completed);

  FleetWorldConfig config = BaseConfig();
  config.checkpoint = PhaseBoundaryCadence();
  WorldResult checkpointed = RunFleetWorld(config, MakeContext(11));
  EXPECT_GT(checkpointed.recovery.checkpoints_saved, 0);
  ExpectEquivalent(plain, checkpointed, "checkpointing on vs off");
}

TEST(RecoveryEquivalenceTest, AnyCrashPointAnyCadenceReplaysBitIdentical) {
  // >= 3 crash points x >= 2 cadences: every recovered run must match the
  // uninterrupted baseline at the same seed.
  WorldResult baseline = RunFleetWorld(BaseConfig(), MakeContext(17));
  ASSERT_TRUE(baseline.completed);

  const std::vector<double> crash_points = {6.0, 14.0, 27.0};
  const std::vector<CheckpointPolicy> cadences = {PhaseBoundaryCadence(),
                                                  PeriodicCadence()};
  for (double crash_at : crash_points) {
    for (size_t c = 0; c < cadences.size(); ++c) {
      FleetWorldConfig config = BaseConfig();
      config.checkpoint = cadences[c];
      config.crash_at_s = {crash_at};
      WorldResult recovered = RunFleetWorld(config, MakeContext(17));
      const std::string label = "crash at " + std::to_string(crash_at) +
                                "s, cadence " + std::to_string(c);
      EXPECT_EQ(recovered.recovery.crashes, 1) << label;
      EXPECT_EQ(recovered.recovery.restores, 1) << label;
      EXPECT_TRUE(recovered.recovery.fixed_point_ok) << label;
      EXPECT_FALSE(recovered.infra_failure) << label;
      ExpectEquivalent(baseline, recovered, label);
    }
  }
}

TEST(RecoveryEquivalenceTest, BackToBackCrashesRecoverBitIdentical) {
  WorldResult baseline = RunFleetWorld(BaseConfig(), MakeContext(23));
  ASSERT_TRUE(baseline.completed);

  FleetWorldConfig config = BaseConfig();
  config.checkpoint = PhaseBoundaryCadence();
  config.crash_at_s = {8.0, 18.0, 26.0};
  WorldResult recovered = RunFleetWorld(config, MakeContext(23));
  EXPECT_EQ(recovered.recovery.crashes, 3);
  EXPECT_EQ(recovered.recovery.restores, 3);
  EXPECT_TRUE(recovered.recovery.fixed_point_ok);
  EXPECT_FALSE(recovered.recovery.gave_up);
  EXPECT_GT(recovered.recovery.checkpoint_bytes, 0u);
  ExpectEquivalent(baseline, recovered, "three crashes");
}

TEST(RecoveryEquivalenceTest, ReplayFromBootWhenNoCheckpointExists) {
  // Checkpointing disabled: the only recovery is re-flying from boot, which
  // determinism makes exact.
  WorldResult baseline = RunFleetWorld(BaseConfig(), MakeContext(29));
  ASSERT_TRUE(baseline.completed);

  FleetWorldConfig config = BaseConfig();
  config.crash_at_s = {12.0};
  WorldResult recovered = RunFleetWorld(config, MakeContext(29));
  EXPECT_EQ(recovered.recovery.crashes, 1);
  EXPECT_EQ(recovered.recovery.restores, 0);
  EXPECT_EQ(recovered.recovery.replays_from_boot, 1);
  ExpectEquivalent(baseline, recovered, "replay from boot");
}

TEST(RecoveryEquivalenceTest, RecoveredWorldsUnderChaosStayEquivalent) {
  // Recovery composes with the other chaos axes: a crash-looped payload
  // container must survive the kill/restore cycle too.
  FleetWorldConfig chaotic = CrashLoopConfig();
  WorldResult baseline = RunFleetWorld(chaotic, MakeContext(31));
  ASSERT_TRUE(baseline.completed);

  FleetWorldConfig config = chaotic;
  config.checkpoint = PhaseBoundaryCadence();
  config.crash_at_s = {9.0, 21.0};
  WorldResult recovered = RunFleetWorld(config, MakeContext(31));
  EXPECT_EQ(recovered.recovery.crashes, 2);
  EXPECT_TRUE(recovered.recovery.fixed_point_ok);
  ExpectEquivalent(baseline, recovered, "crash loop + world crashes");
}

TEST(RecoveryEquivalenceTest, PendingSupervisorRestartRestoresExactly) {
  // The payload's third restart waits ~1.9 s after its crash at 18 s, so
  // with a 1 s cadence the checkpoint at 19 s holds the supervisor's armed
  // restart timer, and a world crash at 19.5 s restores it.
  FleetWorldConfig config = CrashLoopConfig();
  config.checkpoint.period_s = 1;
  config.checkpoint.at_phase_boundaries = false;
  config.crash_at_s = {19.5};
  {
    // With no restore budget the world gives up at the crash, and the store
    // keeps the checkpoint the recovery below restores.
    FleetWorldConfig capture = config;
    capture.max_restores = 0;
    CheckpointStore store;
    capture.checkpoint_sink = &store;
    ASSERT_TRUE(RunFleetWorld(capture, MakeContext(31)).recovery.gave_up);
    StatusOr<std::string> blob = store.Latest();
    ASSERT_TRUE(blob.ok());
    const auto table = snapshot_fixtures::TimerTable(*blob);
    ASSERT_TRUE(std::any_of(table.begin(), table.end(), [](const auto& e) {
      return e.first.rfind("sup.", 0) == 0;
    }));
    EXPECT_TRUE(VerifyFleetCheckpoint(config, MakeContext(31), *blob).ok());

    // A table that re-arms a restart the restored state does not hold is
    // refused. SUPV: rng (32 bytes), three u64 counts, then the one watch
    // entry's id, streak (u32) and life start before its pending flag.
    std::string unheld = *blob;
    const size_t pending = unheld.find("SUPV") + 4 + 32 + 24 + 8 + 4 + 8;
    ASSERT_EQ(unheld[pending], 1);
    unheld[pending] = 0;
    Status status = VerifyFleetCheckpoint(config, MakeContext(31), unheld);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("sup."), std::string::npos) << status;
  }
  WorldResult baseline = RunFleetWorld(CrashLoopConfig(), MakeContext(31));
  ASSERT_TRUE(baseline.completed);
  WorldResult recovered = RunFleetWorld(config, MakeContext(31));
  EXPECT_EQ(recovered.recovery.restores, 1);
  EXPECT_TRUE(recovered.recovery.fixed_point_ok);
  ExpectEquivalent(baseline, recovered, "restore with a restart pending");
}

TEST(RecoveryEquivalenceTest, ThreadCountInvariantWithCrashes) {
  // The acceptance matrix's thread axis: fleets with crashing worlds must
  // produce the same fleet digest (and per-world results) at 1/2/8 threads.
  FleetWorldConfig config = BaseConfig();
  config.checkpoint = PhaseBoundaryCadence();
  config.crash_at_s = {7.0, 19.0};

  FleetOptions options;
  options.base_seed = 5;
  options.threads = 1;
  FleetReport one = FleetExecutor(options).Run(4, MakeFleetWorld(config));
  ASSERT_EQ(one.completed, 4);

  for (int threads : {2, 8}) {
    options.threads = threads;
    FleetReport report = FleetExecutor(options).Run(4, MakeFleetWorld(config));
    EXPECT_EQ(report.completed, 4) << threads;
    EXPECT_EQ(report.fleet_digest, one.fleet_digest) << threads;
    for (int i = 0; i < 4; ++i) {
      ExpectEquivalent(one.worlds[static_cast<size_t>(i)],
                       report.worlds[static_cast<size_t>(i)],
                       "world " + std::to_string(i) + " at " +
                           std::to_string(threads) + " threads");
    }
  }

  // And a crashing fleet matches the never-crashed fleet at the same seeds.
  FleetWorldConfig plain = BaseConfig();
  options.threads = 2;
  FleetReport uninterrupted =
      FleetExecutor(options).Run(4, MakeFleetWorld(plain));
  EXPECT_EQ(uninterrupted.fleet_digest, one.fleet_digest);
}

TEST(RecoveryEquivalenceTest, ReplayFromTemplateBlobStaysBitIdentical) {
  // Crash recovery composes with world cloning (DESIGN.md §14): a templated
  // world that crashes with no checkpoint yet rebuilds its replacement
  // attempt from the template blob (a clone, not a re-boot), and the
  // recovered run must still be bit-identical to the plain cold-booted
  // uninterrupted baseline.
  WorldResult baseline = RunFleetWorld(BaseConfig(), MakeContext(41));
  ASSERT_TRUE(baseline.completed);

  WorldTemplateCache templates;
  FleetWorldConfig config = BaseConfig();
  config.templates = &templates;
  config.crash_at_s = {12.0};
  WorldResult recovered = RunFleetWorld(config, MakeContext(41));
  EXPECT_EQ(recovered.recovery.crashes, 1);
  EXPECT_EQ(recovered.recovery.restores, 0);
  EXPECT_EQ(recovered.recovery.replays_from_boot, 1);
  // The first attempt cold-boots and publishes; the post-crash replay
  // attempt clones from the published blob.
  EXPECT_EQ(templates.misses(), 1u);
  EXPECT_GE(templates.hits(), 1u);
  EXPECT_TRUE(recovered.provision.cloned);
  ExpectEquivalent(baseline, recovered, "replay from template blob");

  // Checkpointed recovery under templates stays exact too.
  FleetWorldConfig checkpointed = config;
  checkpointed.checkpoint = PhaseBoundaryCadence();
  checkpointed.crash_at_s = {8.0, 20.0};
  WorldResult restored = RunFleetWorld(checkpointed, MakeContext(41));
  EXPECT_EQ(restored.recovery.crashes, 2);
  EXPECT_EQ(restored.recovery.restores, 2);
  ExpectEquivalent(baseline, restored, "checkpoint restore under templates");
}

TEST(RecoveryEquivalenceTest, GiveUpAfterRestoreBudgetIsScenarioOutcome) {
  FleetWorldConfig config = BaseConfig();
  config.checkpoint = PhaseBoundaryCadence();
  config.crash_at_s = {6.0, 10.0, 14.0, 18.0};
  config.max_restores = 2;
  WorldResult result = RunFleetWorld(config, MakeContext(37));
  EXPECT_TRUE(result.recovery.gave_up);
  EXPECT_EQ(result.recovery.restores, 2);
  EXPECT_FALSE(result.completed);
  // A spent restore budget is a scenario outcome, not an infrastructure
  // failure — the executor must not retry the whole world.
  EXPECT_FALSE(result.infra_failure);
}

// --- Checkpoint header validation ---

TEST(CheckpointHeaderTest, RejectsVersionMismatchDescriptively) {
  SnapshotWriter w;
  CheckpointHeader out;
  out.version = kSnapshotFormatVersion + 1;
  out.seed = 7;
  out.world_fingerprint = 9;
  out.sim_time = Seconds(5);
  out.Save(w);

  SnapshotReader r(w.bytes());
  CheckpointHeader in;
  Status status = in.Load(r, 7, 9);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.ToString();
}

TEST(CheckpointHeaderTest, RejectsForeignSeedAndFingerprint) {
  SnapshotWriter w;
  CheckpointHeader out;
  out.seed = 7;
  out.world_fingerprint = 9;
  out.Save(w);

  {
    SnapshotReader r(w.bytes());
    CheckpointHeader in;
    EXPECT_FALSE(in.Load(r, 8, 9).ok());  // Wrong seed.
  }
  {
    SnapshotReader r(w.bytes());
    CheckpointHeader in;
    EXPECT_FALSE(in.Load(r, 7, 10).ok());  // Wrong config fingerprint.
  }
  {
    SnapshotReader r(w.bytes());
    CheckpointHeader in;
    EXPECT_TRUE(in.Load(r, 7, 9).ok());
  }
}

TEST(CheckpointHeaderTest, RejectsGarbageMagic) {
  std::string garbage = "definitely not a checkpoint blob";
  SnapshotReader r(garbage);
  CheckpointHeader in;
  Status status = in.Load(r, 0, 0);
  EXPECT_FALSE(status.ok());
}

TEST(CheckpointHeaderTest, RejectsACheckpointFromADifferentSensorFaultPlan) {
  // Both worlds run a sensor-fault plan and differ only in a window after
  // the boot warmup: the checkpoint binds to its plan's windows, so a world
  // under the other plan refuses it at the header.
  SensorFaultPlan plan_a;
  ASSERT_TRUE(
      plan_a.AddBiasDrift(SensorChannel::kBaro, Seconds(20), Seconds(4), 0.05)
          .ok());
  SensorFaultPlan plan_b;
  ASSERT_TRUE(
      plan_b.AddBiasDrift(SensorChannel::kBaro, Seconds(24), Seconds(4), 0.05)
          .ok());
  CheckpointStore store;
  FleetWorldConfig config = BaseConfig();
  config.sensor_faults = &plan_a;
  config.checkpoint = PhaseBoundaryCadence();
  config.checkpoint_sink = &store;
  ASSERT_FALSE(RunFleetWorld(config, MakeContext(19)).infra_failure);
  StatusOr<std::string> blob = store.Latest();
  ASSERT_TRUE(blob.ok());

  FleetWorldConfig same = BaseConfig();
  same.sensor_faults = &plan_a;
  same.fork_blob = &*blob;
  EXPECT_FALSE(RunFleetWorld(same, MakeContext(19)).infra_failure);

  FleetWorldConfig other = same;
  other.sensor_faults = &plan_b;
  EXPECT_TRUE(RunFleetWorld(other, MakeContext(19)).infra_failure);
  SnapshotReader r(*blob);
  CheckpointHeader header;
  Status status = header.Load(r, MakeContext(19).seed, ConfigFingerprint(other));
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos) << status;
}

// --- Executor infra-failure retry ---

TEST(FleetExecutorRetryTest, RetriesInfraFailuresOnceAndCountsThem) {
  // Worlds 1 and 3 fail with an infrastructure error on their first attempt
  // and succeed on the retry; the rest succeed immediately.
  std::atomic<int> attempts[4] = {{0}, {0}, {0}, {0}};
  WorldFn fn = [&attempts](const WorldContext& ctx) {
    WorldResult result;
    result.seed = ctx.seed;
    int attempt = attempts[ctx.index].fetch_add(1) + 1;
    if ((ctx.index == 1 || ctx.index == 3) && attempt == 1) {
      result.infra_failure = true;
      return result;
    }
    result.completed = true;
    result.digest = ctx.seed;
    return result;
  };

  FleetOptions options;
  options.threads = 2;
  FleetReport report = FleetExecutor(options).Run(4, fn);
  EXPECT_EQ(report.completed, 4);
  EXPECT_EQ(report.retried, 2);
  EXPECT_EQ(report.metrics.counters.at("fleet.worlds_retried"), 2.0);
  EXPECT_EQ(attempts[1].load(), 2);
  EXPECT_EQ(attempts[3].load(), 2);
}

TEST(FleetExecutorRetryTest, PersistentInfraFailureIsNotRetriedForever) {
  std::atomic<int> attempts{0};
  WorldFn fn = [&attempts](const WorldContext&) {
    attempts.fetch_add(1);
    WorldResult result;
    result.infra_failure = true;
    return result;
  };
  FleetOptions options;
  FleetReport report = FleetExecutor(options).Run(1, fn);
  EXPECT_EQ(report.completed, 0);
  EXPECT_EQ(report.retried, 1);
  EXPECT_EQ(attempts.load(), 2);  // Original + exactly one retry.
}

}  // namespace
}  // namespace androne
