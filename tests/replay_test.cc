// Record-once replay engine (DESIGN.md §15): a recorded world replayed from
// its log must be bit-identical to the recording run — same digest, flight
// digest, metrics, and trace — at any executor thread count; a replay run
// that records must reproduce the log byte-for-byte (the fixed point); a
// corrupted, truncated, or mismatched log must be rejected with a
// descriptive Status; fork-and-explore's control branch must continue the
// recorded timeline bit-identically; and the --speed governor must pace
// without moving a single digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/exec/fleet_executor.h"
#include "src/exec/fleet_world.h"
#include "src/net/fault_injector.h"
#include "src/obs/trace.h"
#include "src/replay/explore.h"
#include "src/replay/replay_log.h"
#include "src/snapshot/snapshot.h"
#include "src/util/time_governor.h"

namespace androne {
namespace {

FleetWorldConfig SmallConfig() {
  FleetWorldConfig config;
  config.tenants = 1;
  config.dwell_s = 2;
  config.annealing_iterations = 80;
  config.trace_categories = kTraceAll;
  return config;
}

WorldContext MakeContext(uint64_t seed) {
  WorldContext ctx;
  ctx.index = 0;
  ctx.seed = seed;
  return ctx;
}

void ExpectEquivalent(const WorldResult& baseline, const WorldResult& run,
                      const std::string& label) {
  EXPECT_EQ(baseline.completed, run.completed) << label;
  EXPECT_EQ(baseline.digest, run.digest) << label;
  EXPECT_EQ(baseline.flight_digest, run.flight_digest) << label;
  EXPECT_EQ(baseline.counters, run.counters) << label;
  EXPECT_EQ(baseline.metrics.Digest(), run.metrics.Digest()) << label;
  EXPECT_EQ(baseline.metrics.ToText(), run.metrics.ToText()) << label;
  EXPECT_EQ(baseline.trace_text, run.trace_text) << label;
}

TEST(ReplayTest, RecordingDoesNotMoveTheWorld) {
  // The recorder is a pure tap at the end of every fast-loop tick; a world
  // that records must be byte-identical to one that does not.
  WorldResult plain = RunFleetWorld(SmallConfig(), MakeContext(21));
  ASSERT_TRUE(plain.completed);
  EXPECT_FALSE(plain.replay.recorded);

  ReplayLogStore store;
  FleetWorldConfig config = SmallConfig();
  config.record_into = &store;
  WorldResult recorded = RunFleetWorld(config, MakeContext(21));
  EXPECT_TRUE(recorded.replay.recorded);
  EXPECT_GT(recorded.replay.ticks, 0u);
  EXPECT_GT(recorded.replay.log_bytes, 0u);
  EXPECT_EQ(store.count(), 1u);
  ExpectEquivalent(plain, recorded, "recording on vs off");
}

TEST(ReplayTest, ReplayIsBitIdenticalToTheRecordingRun) {
  ReplayLogStore store;
  FleetWorldConfig record_config = SmallConfig();
  record_config.record_into = &store;
  WorldResult recorded = RunFleetWorld(record_config, MakeContext(33));
  ASSERT_TRUE(recorded.completed);

  FleetWorldConfig replay_config = SmallConfig();
  replay_config.replay_from = &store;
  WorldResult replayed = RunFleetWorld(replay_config, MakeContext(33));
  EXPECT_TRUE(replayed.replay.replayed);
  EXPECT_TRUE(replayed.replay.digest_match);
  EXPECT_EQ(replayed.replay.underruns, 0u);
  EXPECT_EQ(replayed.replay.ticks, recorded.replay.ticks);
  ExpectEquivalent(recorded, replayed, "record vs replay");
}

TEST(ReplayTest, FleetReplayIsThreadCountInvariant) {
  // Record a 4-world fleet once, then replay the whole fleet at 1, 2, and
  // 8 executor threads: every replay must land on the recording fleet's
  // digest (worlds are keyed by their own seeds, so scheduling is free).
  constexpr int kWorlds = 4;
  ReplayLogStore store;
  FleetOptions fleet;
  fleet.threads = 2;
  fleet.base_seed = 77;
  FleetReport recorded = FleetExecutor(fleet).Run(
      kWorlds, [&store](const WorldContext& ctx) {
        FleetWorldConfig config = SmallConfig();
        config.record_into = &store;
        return RunFleetWorld(config, ctx);
      });
  ASSERT_EQ(store.count(), static_cast<size_t>(kWorlds));

  for (int threads : {1, 2, 8}) {
    FleetOptions replay_fleet;
    replay_fleet.threads = threads;
    replay_fleet.base_seed = 77;
    FleetReport replayed = FleetExecutor(replay_fleet).Run(
        kWorlds, [&store](const WorldContext& ctx) {
          FleetWorldConfig config = SmallConfig();
          config.replay_from = &store;
          return RunFleetWorld(config, ctx);
        });
    EXPECT_EQ(recorded.fleet_digest, replayed.fleet_digest)
        << "threads=" << threads;
    for (const WorldResult& world : replayed.worlds) {
      EXPECT_TRUE(world.replay.digest_match)
          << "threads=" << threads << " seed=" << world.seed;
      EXPECT_EQ(world.replay.underruns, 0u) << "threads=" << threads;
    }
  }
}

TEST(ReplayTest, RecordReplayRecordIsAByteFixedPoint) {
  // Property: across 32 seeds, a replaying world that also records must
  // reproduce the original log byte-for-byte — what a replay tick installs
  // is exactly what the recorder captures.
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    ReplayLogStore first, second;
    FleetWorldConfig record_config = SmallConfig();
    record_config.record_into = &first;
    WorldResult recorded = RunFleetWorld(record_config, MakeContext(seed));
    ASSERT_FALSE(recorded.infra_failure) << "seed=" << seed;

    FleetWorldConfig both_config = SmallConfig();
    both_config.replay_from = &first;
    both_config.record_into = &second;
    WorldResult replayed = RunFleetWorld(both_config, MakeContext(seed));
    ASSERT_FALSE(replayed.infra_failure) << "seed=" << seed;
    EXPECT_TRUE(replayed.replay.digest_match) << "seed=" << seed;

    auto original = first.Get(seed);
    auto reproduced = second.Get(seed);
    ASSERT_NE(original, nullptr) << "seed=" << seed;
    ASSERT_NE(reproduced, nullptr) << "seed=" << seed;
    EXPECT_TRUE(*original == *reproduced)
        << "seed=" << seed << ": replay did not reproduce its own log ("
        << original->size() << " vs " << reproduced->size() << " bytes)";
  }
}

TEST(ReplayTest, ReplayAgainstMissingLogIsAnInfraFailure) {
  ReplayLogStore empty;
  FleetWorldConfig config = SmallConfig();
  config.replay_from = &empty;
  WorldResult result = RunFleetWorld(config, MakeContext(5));
  EXPECT_TRUE(result.infra_failure);
}

TEST(ReplayTest, ReplayAgainstDifferentConfigIsAnInfraFailure) {
  // The log is pinned to the recording config's fingerprint: replaying it
  // under a config that builds a different world must fail at load, not
  // produce garbage samples.
  ReplayLogStore store;
  FleetWorldConfig record_config = SmallConfig();
  record_config.record_into = &store;
  ASSERT_FALSE(RunFleetWorld(record_config, MakeContext(9)).infra_failure);

  FleetWorldConfig other = SmallConfig();
  other.dwell_s = 3;  // Different fingerprint.
  other.replay_from = &store;
  WorldResult result = RunFleetWorld(other, MakeContext(9));
  EXPECT_TRUE(result.infra_failure);
}

TEST(ReplayTest, ReplayUnderADifferentNetFaultPlanIsAnInfraFailure) {
  // Both worlds carry a downlink fault plan, but the windows differ: the
  // log must be refused at build by its fingerprint, not accepted and left
  // to diverge mid-flight.
  FaultPlan plan_a;
  ASSERT_TRUE(plan_a.AddOutage(Seconds(8), Seconds(3)).ok());
  FaultPlan plan_b;
  ASSERT_TRUE(plan_b.AddBurstLoss(Seconds(4), Seconds(6), 0.5).ok());

  ReplayLogStore store;
  FleetWorldConfig record_config = SmallConfig();
  record_config.net_faults = &plan_a;
  record_config.record_into = &store;
  ASSERT_FALSE(RunFleetWorld(record_config, MakeContext(12)).infra_failure);

  FleetWorldConfig other = SmallConfig();
  other.net_faults = &plan_b;
  other.replay_from = &store;
  WorldResult result = RunFleetWorld(other, MakeContext(12));
  EXPECT_TRUE(result.infra_failure);
  EXPECT_FALSE(result.replay.replayed);
}

TEST(ReplayTest, RecordOrReplayRejectsCrashChaos) {
  // The recovery loop re-runs ticks after a restore, which would duplicate
  // (record) or desynchronize (replay) the log — the combination is
  // rejected up front as an infrastructure failure.
  ReplayLogStore store;
  FleetWorldConfig config = SmallConfig();
  config.record_into = &store;
  config.crash_at_s = {5};
  EXPECT_TRUE(RunFleetWorld(config, MakeContext(3)).infra_failure);

  FleetWorldConfig replay_config = SmallConfig();
  replay_config.replay_from = &store;
  replay_config.crash_at_s = {5};
  EXPECT_TRUE(RunFleetWorld(replay_config, MakeContext(3)).infra_failure);
}

// --- Log container validation -------------------------------------------

TEST(ReplayLogTest, WriterRoundTripsThroughFromBytes) {
  ReplayLogWriter writer(/*seed=*/42, /*config_fingerprint=*/0xabcdef);
  PlannedRoute route;
  route.drone = 1;
  route.total_energy_j = 1234.5;
  route.total_time_s = 67.8;
  route.stops.push_back(PlannedStop{/*job_index=*/2,
                                    /*arrival_energy_j=*/100.0,
                                    /*arrival_time_s=*/9.5});
  writer.SetPlan(route);

  FlightPlaneSample sample;
  sample.wake_latency_us = 57.5;
  sample.est_dead_reckoning = true;
  sample.est_gyro = {0.1, -0.2, 0.3};
  sample.truth.rotor_power_w = 250.0;
  sample.truth.airborne = true;
  writer.Append(sample);
  writer.Append(sample);
  EXPECT_EQ(writer.tick_count(), 2u);

  ReplayFooter footer;
  footer.digest = 0x1111;
  footer.flight_digest = 0x2222;
  footer.metrics_digest = 0x3333;
  footer.trace_hash = 0x4444;
  footer.completed = true;
  std::string bytes = writer.Finalize(footer);
  ASSERT_FALSE(bytes.empty());

  auto parsed = ReplayLog::FromBytes(bytes, 42, 0xabcdef);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed(), 42u);
  EXPECT_EQ(parsed->config_fingerprint(), 0xabcdefu);
  ASSERT_TRUE(parsed->have_plan());
  EXPECT_EQ(parsed->plan().drone, 1);
  ASSERT_EQ(parsed->plan().stops.size(), 1u);
  EXPECT_EQ(parsed->plan().stops[0].job_index, 2u);
  ASSERT_EQ(parsed->ticks().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->ticks()[0].wake_latency_us, 57.5);
  EXPECT_TRUE(parsed->ticks()[0].est_dead_reckoning);
  EXPECT_DOUBLE_EQ(parsed->ticks()[1].truth.rotor_power_w, 250.0);
  EXPECT_TRUE(parsed->ticks()[1].truth.airborne);
  EXPECT_EQ(parsed->footer().digest, 0x1111u);
  EXPECT_EQ(parsed->footer().trace_hash, 0x4444u);
  EXPECT_TRUE(parsed->footer().completed);
  EXPECT_EQ(parsed->byte_size(), bytes.size());
}

std::string MakeLog(uint64_t seed, uint64_t fingerprint, int ticks = 4) {
  ReplayLogWriter writer(seed, fingerprint);
  FlightPlaneSample sample;
  sample.wake_latency_us = 10;
  for (int i = 0; i < ticks; ++i) {
    sample.truth.rotor_power_w = 100.0 + i;
    writer.Append(sample);
  }
  ReplayFooter footer;
  footer.completed = true;
  return writer.Finalize(footer);
}

TEST(ReplayLogTest, RejectsBadMagic) {
  std::string bytes = MakeLog(7, 0x99);
  bytes[0] ^= 0xff;
  auto parsed = ReplayLog::FromBytes(bytes, 7, 0x99);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("bad magic"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ReplayLogTest, RejectsWrongSeedAndFingerprint) {
  std::string bytes = MakeLog(7, 0x99);
  auto wrong_seed = ReplayLog::FromBytes(bytes, 8, 0x99);
  ASSERT_FALSE(wrong_seed.ok());
  EXPECT_NE(wrong_seed.status().message().find("seed"), std::string::npos)
      << wrong_seed.status().ToString();

  auto wrong_fp = ReplayLog::FromBytes(bytes, 7, 0x9a);
  ASSERT_FALSE(wrong_fp.ok());
  EXPECT_NE(wrong_fp.status().message().find("fingerprint"),
            std::string::npos)
      << wrong_fp.status().ToString();
}

TEST(ReplayLogTest, RejectsTruncationAtEveryLength) {
  // Every proper prefix must be rejected with a non-OK Status — never a
  // crash, never a silently short tick vector.
  std::string bytes = MakeLog(7, 0x99, /*ticks=*/2);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto parsed = ReplayLog::FromBytes(bytes.substr(0, len), 7, 0x99);
    EXPECT_FALSE(parsed.ok()) << "prefix length " << len << " parsed";
  }
}

TEST(ReplayLogTest, RejectsCorruptedTickBytes) {
  // Flip one byte in the tick region: the footer checksum must catch it.
  std::string bytes = MakeLog(7, 0x99);
  // The header is magic(8) + version(4) + seed(8) + fingerprint(8) + plan
  // section; flip a byte comfortably inside the sample region near the
  // middle of the log.
  bytes[bytes.size() / 2] ^= 0x01;
  auto parsed = ReplayLog::FromBytes(bytes, 7, 0x99);
  ASSERT_FALSE(parsed.ok());
}

TEST(ReplayLogTest, RejectsTrailingGarbage) {
  std::string bytes = MakeLog(7, 0x99);
  bytes += "extra";
  auto parsed = ReplayLog::FromBytes(bytes, 7, 0x99);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("trailing"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ReplayLogTest, RejectsAnOversizedPlanStopCount) {
  // The PLAN section precedes the tick checksum, so a corrupt stop count
  // must be caught by its own bound, not by an allocation failure.
  ReplayLogWriter writer(/*seed=*/7, /*config_fingerprint=*/0x99);
  PlannedRoute route;
  route.total_time_s = 4321.125;
  route.stops.push_back(PlannedStop{/*job_index=*/0,
                                    /*arrival_energy_j=*/1.0,
                                    /*arrival_time_s=*/2.0});
  writer.SetPlan(route);
  std::string bytes = writer.Finalize(ReplayFooter{});
  ASSERT_TRUE(ReplayLog::FromBytes(bytes, 7, 0x99).ok());

  // The u32 stop count directly follows total_time_s.
  SnapshotWriter time_bytes;
  time_bytes.F64(route.total_time_s);
  const size_t at = bytes.find(time_bytes.bytes());
  ASSERT_NE(at, std::string::npos);
  for (size_t i = 0; i < 4; ++i) {
    bytes[at + time_bytes.bytes().size() + i] = '\xff';
  }
  auto parsed = ReplayLog::FromBytes(bytes, 7, 0x99);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("stops"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ReplayLogTest, StoreIsKeyedBySeed) {
  ReplayLogStore store;
  store.Put(1, "aaaa");
  store.Put(2, "bbbbbb");
  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(store.total_bytes(), 10u);
  ASSERT_NE(store.Get(1), nullptr);
  EXPECT_EQ(*store.Get(1), "aaaa");
  EXPECT_EQ(store.Get(3), nullptr);
}

// --- Fork-and-explore ----------------------------------------------------

TEST(ExploreTest, ControlBranchContinuesTheTimelineBitIdentically) {
  ExploreOptions options;
  options.config = SmallConfig();
  options.seed = 13;
  options.branches = 3;
  options.threads = 2;
  options.default_checkpoint_period_s = 4;
  auto report = ExploreFromDecisionPoint(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->control_match);
  ASSERT_EQ(report->branches.size(), 3u);
  EXPECT_EQ(report->branches[0].reseed, 0u);
  EXPECT_NE(report->branches[1].reseed, 0u);
  EXPECT_NE(report->branches[1].reseed, report->branches[2].reseed);
  EXPECT_GT(report->fork_blob_bytes, 0u);
  EXPECT_GT(report->fork_time, 0);
  EXPECT_FALSE(report->ToText().empty());
  for (const BranchOutcome& branch : report->branches) {
    EXPECT_FALSE(branch.infra_failure) << "branch " << branch.branch;
  }
}

TEST(ExploreTest, RejectsCrashChaosAndZeroBranches) {
  ExploreOptions options;
  options.config = SmallConfig();
  options.branches = 0;
  EXPECT_FALSE(ExploreFromDecisionPoint(options).ok());

  options.branches = 2;
  options.config.crash_at_s = {5};
  EXPECT_FALSE(ExploreFromDecisionPoint(options).ok());
}

// --- --speed governor ----------------------------------------------------

TEST(TimeGovernorTest, DisabledGovernorNeverSleeps) {
  int64_t wall = 0;
  TimeGovernor::Options options;
  options.speed = 0;
  options.wall_now_us = [&wall] { return wall; };
  options.sleep_us = [](int64_t) { FAIL() << "slept while disabled"; };
  TimeGovernor governor(options);
  EXPECT_FALSE(governor.enabled());
  governor.Start(0);
  governor.Pace(Seconds(100));
  EXPECT_EQ(governor.sleeps(), 0);
}

TEST(TimeGovernorTest, PacesSimTimeAgainstTheWallClock) {
  // speed=2: the sim earns 1 wall second per 2 sim seconds. With a frozen
  // wall clock, pacing 4 sim seconds must sleep exactly 2 wall seconds.
  int64_t wall = 1000;
  int64_t slept = 0;
  TimeGovernor::Options options;
  options.speed = 2;
  options.wall_now_us = [&wall] { return wall; };
  options.sleep_us = [&wall, &slept](int64_t us) {
    slept += us;
    wall += us;  // The fake sleep advances the fake clock.
  };
  TimeGovernor governor(options);
  governor.Start(0);
  governor.Pace(Seconds(4));
  EXPECT_EQ(slept, 2'000'000);
  EXPECT_EQ(governor.sleeps(), 1);
  EXPECT_EQ(governor.slept_us(), 2'000'000);

  // The wall clock is now exactly on time; pacing the same instant again
  // must not sleep.
  governor.Pace(Seconds(4));
  EXPECT_EQ(governor.sleeps(), 1);

  // If the wall clock runs ahead (slow hardware), the governor runs free.
  wall += 10'000'000;
  governor.Pace(Seconds(6));
  EXPECT_EQ(governor.sleeps(), 1);
}

TEST(TimeGovernorTest, RestartForgivesAccumulatedDebt) {
  int64_t wall = 0;
  int64_t slept = 0;
  TimeGovernor::Options options;
  options.speed = 1;
  options.wall_now_us = [&wall] { return wall; };
  options.sleep_us = [&wall, &slept](int64_t us) {
    slept += us;
    wall += us;
  };
  TimeGovernor governor(options);
  governor.Start(0);
  // Re-anchor at sim t=100s with the wall still at 0: the 100 sim seconds
  // of debt are forgiven (a restored world must not be charged for the
  // recovered timeline).
  governor.Start(Seconds(100));
  governor.Pace(Seconds(100));
  EXPECT_EQ(slept, 0);
  governor.Pace(Seconds(101));
  EXPECT_EQ(slept, 1'000'000);
}

TEST(TimeGovernorTest, ParseSpeedValidates) {
  double speed = -1;
  std::string error;
  EXPECT_TRUE(ParseSpeed("0", &speed, &error));
  EXPECT_EQ(speed, 0);
  EXPECT_TRUE(ParseSpeed("0.5", &speed, &error));
  EXPECT_EQ(speed, 0.5);
  EXPECT_TRUE(ParseSpeed("8", &speed, &error));
  EXPECT_EQ(speed, 8);

  EXPECT_FALSE(ParseSpeed("", &speed, &error));
  EXPECT_FALSE(ParseSpeed("fast", &speed, &error));
  EXPECT_NE(error.find("not a number"), std::string::npos);
  EXPECT_FALSE(ParseSpeed("1.5x", &speed, &error));
  EXPECT_FALSE(ParseSpeed("-1", &speed, &error));
  EXPECT_NE(error.find(">= 0"), std::string::npos);
  EXPECT_FALSE(ParseSpeed("nan", &speed, &error));
  EXPECT_FALSE(ParseSpeed("inf", &speed, &error));
}

TEST(TimeGovernorTest, GovernedWorldKeepsItsDigest) {
  // Pacing sleeps the worker but never touches the SimClock, so every
  // digest is identical to the unthrottled run. The speed is a quarter of
  // the sim-to-wall ratio this build measured flying the same world
  // unthrottled, so on any build (sanitized ones are many times slower) at
  // least one Pace() call must actually sleep.
  WorldResult plain = RunFleetWorld(SmallConfig(), MakeContext(44));
  ASSERT_TRUE(plain.completed);
  EXPECT_EQ(plain.replay.governor_sleeps, 0);
  ASSERT_GT(plain.provision.fly_ns, 0u);
  const double unthrottled_speed =
      plain.counters.at("flight_time_s") /
      (static_cast<double>(plain.provision.fly_ns) * 1e-9);

  FleetWorldConfig config = SmallConfig();
  config.speed = unthrottled_speed / 4;
  WorldResult governed = RunFleetWorld(config, MakeContext(44));
  EXPECT_GT(governed.replay.governor_sleeps, 0);
  EXPECT_GT(governed.replay.governor_slept_us, 0);
  ExpectEquivalent(plain, governed, "governed vs unthrottled");
}

}  // namespace
}  // namespace androne
