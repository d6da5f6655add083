// Record-once replay engine (DESIGN.md §15): a recorded world replayed from
// its log must be bit-identical to the recording run — same digest, flight
// digest, metrics, and trace — at any executor thread count; a replay run
// that records must reproduce the log byte-for-byte (the fixed point); a
// corrupted, truncated, or mismatched log must be rejected with a
// descriptive Status; and fork-and-explore's control branch must continue
// the recorded timeline bit-identically.
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

// Property: across 32 seeds, a replaying world that also records must
// reproduce the original log byte-for-byte — what a replay tick installs
// is exactly what the recorder captures. One test per seed, so the seeds
// run in parallel under ctest.
class ReplayFixedPointTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayFixedPointTest, RecordReplayRecordIsAByteFixedPoint) {
  const uint64_t seed = GetParam();
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

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayFixedPointTest,
                         ::testing::Range<uint64_t>(1, 33));

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

// A sample whose every numeric field holds a value distinct from its
// default and from every other field. Consecutive |k| differ in every
// field: the bools are all true at k = 0 and flip with each k.
FlightPlaneSample DistinctSample(int k) {
  const double b = 100.0 * (k + 1);
  const bool on = k % 2 == 0;
  FlightPlaneSample s;
  s.wake_latency_us = b + 0.5;
  s.est_attitude.roll_rad = b + 1.25;
  s.est_attitude.pitch_rad = -(b + 2.25);
  s.est_attitude.yaw_rad = b + 3.25;
  s.est_position.position = GeoPoint{b + 4.5, -(b + 5.5), b + 6.5};
  s.est_position.velocity_ms = NedPoint{b + 7.75, -(b + 8.75), b + 9.75};
  s.est_position.valid = on;
  s.est_last_fix_time = -(1'000'003 + 17 * k);
  for (size_t i = 0; i < s.est_health.size(); ++i) {
    s.est_health[i] = static_cast<uint8_t>(1 + 4 * k + static_cast<int>(i));
  }
  s.est_gyro = {b + 10.125, -(b + 11.125), b + 12.125};
  s.est_dead_reckoning = on;
  s.truth.position = GeoPoint{b + 13.5, -(b + 14.5), b + 15.5};
  s.truth.velocity_ms = NedPoint{b + 16.25, -(b + 17.25), b + 18.25};
  s.truth.roll_rad = b + 19.0625;
  s.truth.pitch_rad = -(b + 20.0625);
  s.truth.yaw_rad = b + 21.0625;
  s.truth.roll_rate_rads = b + 22.5;
  s.truth.pitch_rate_rads = -(b + 23.5);
  s.truth.yaw_rate_rads = b + 24.5;
  s.truth.accel_up_mss = b + 25.75;
  s.truth.rotor_power_w = b + 26.75;
  s.truth.airborne = on;
  return s;
}

void ExpectSameSample(const FlightPlaneSample& want,
                      const FlightPlaneSample& got, int k) {
  EXPECT_EQ(want.wake_latency_us, got.wake_latency_us) << k;
  EXPECT_EQ(want.est_attitude.roll_rad, got.est_attitude.roll_rad) << k;
  EXPECT_EQ(want.est_attitude.pitch_rad, got.est_attitude.pitch_rad) << k;
  EXPECT_EQ(want.est_attitude.yaw_rad, got.est_attitude.yaw_rad) << k;
  const PositionEstimate& wp = want.est_position;
  const PositionEstimate& gp = got.est_position;
  EXPECT_EQ(wp.position.latitude_deg, gp.position.latitude_deg) << k;
  EXPECT_EQ(wp.position.longitude_deg, gp.position.longitude_deg) << k;
  EXPECT_EQ(wp.position.altitude_m, gp.position.altitude_m) << k;
  EXPECT_EQ(wp.velocity_ms.north_m, gp.velocity_ms.north_m) << k;
  EXPECT_EQ(wp.velocity_ms.east_m, gp.velocity_ms.east_m) << k;
  EXPECT_EQ(wp.velocity_ms.down_m, gp.velocity_ms.down_m) << k;
  EXPECT_EQ(wp.valid, gp.valid) << k;
  EXPECT_EQ(want.est_last_fix_time, got.est_last_fix_time) << k;
  EXPECT_EQ(want.est_health, got.est_health) << k;
  EXPECT_EQ(want.est_gyro, got.est_gyro) << k;
  EXPECT_EQ(want.est_dead_reckoning, got.est_dead_reckoning) << k;
  const DroneGroundTruth& wt = want.truth;
  const DroneGroundTruth& gt = got.truth;
  EXPECT_EQ(wt.position.latitude_deg, gt.position.latitude_deg) << k;
  EXPECT_EQ(wt.position.longitude_deg, gt.position.longitude_deg) << k;
  EXPECT_EQ(wt.position.altitude_m, gt.position.altitude_m) << k;
  EXPECT_EQ(wt.velocity_ms.north_m, gt.velocity_ms.north_m) << k;
  EXPECT_EQ(wt.velocity_ms.east_m, gt.velocity_ms.east_m) << k;
  EXPECT_EQ(wt.velocity_ms.down_m, gt.velocity_ms.down_m) << k;
  EXPECT_EQ(wt.roll_rad, gt.roll_rad) << k;
  EXPECT_EQ(wt.pitch_rad, gt.pitch_rad) << k;
  EXPECT_EQ(wt.yaw_rad, gt.yaw_rad) << k;
  EXPECT_EQ(wt.roll_rate_rads, gt.roll_rate_rads) << k;
  EXPECT_EQ(wt.pitch_rate_rads, gt.pitch_rate_rads) << k;
  EXPECT_EQ(wt.yaw_rate_rads, gt.yaw_rate_rads) << k;
  EXPECT_EQ(wt.accel_up_mss, gt.accel_up_mss) << k;
  EXPECT_EQ(wt.rotor_power_w, gt.rotor_power_w) << k;
  EXPECT_EQ(wt.airborne, gt.airborne) << k;
}

TEST(ReplayLogTest, WriterRoundTripsThroughFromBytes) {
  PlannedRoute route;
  route.drone = 1;
  route.total_energy_j = 1234.5;
  route.total_time_s = 67.8;
  route.stops.push_back(PlannedStop{/*job_index=*/2,
                                    /*arrival_energy_j=*/100.0,
                                    /*arrival_time_s=*/9.5});
  ReplayFooter footer;
  footer.digest = 0x1111;
  footer.flight_digest = 0x2222;
  footer.metrics_digest = 0x3333;
  footer.trace_hash = 0x4444;
  footer.completed = true;

  constexpr int kTicks = 3;
  ReplayLogWriter writer(/*seed=*/42, /*config_fingerprint=*/0xabcdef);
  writer.SetPlan(route);
  for (int k = 0; k < kTicks; ++k) {
    writer.Append(DistinctSample(k));
  }
  EXPECT_EQ(writer.tick_count(), static_cast<uint64_t>(kTicks));
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
  EXPECT_EQ(parsed->footer().digest, 0x1111u);
  EXPECT_EQ(parsed->footer().trace_hash, 0x4444u);
  EXPECT_TRUE(parsed->footer().completed);
  EXPECT_EQ(parsed->byte_size(), bytes.size());
  ASSERT_EQ(parsed->tick_count(), static_cast<uint64_t>(kTicks));

  // Every decoded tick equals what was appended, field by field, and
  // re-appending the decoded ticks reproduces the log byte for byte.
  ReplayLogWriter rewriter(/*seed=*/42, /*config_fingerprint=*/0xabcdef);
  rewriter.SetPlan(route);
  for (int k = 0; k < kTicks; ++k) {
    FlightPlaneSample tick;
    parsed->ReadTick(static_cast<uint64_t>(k), tick);
    ExpectSameSample(DistinctSample(k), tick, k);
    rewriter.Append(tick);
  }
  EXPECT_TRUE(rewriter.Finalize(footer) == bytes);
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

}  // namespace
}  // namespace androne
