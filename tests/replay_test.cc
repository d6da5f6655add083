// Record-once replay engine (DESIGN.md §15): a recorded world replayed from
// its log must be bit-identical to the recording run — same digest, flight
// digest, metrics, and trace — at any executor thread count; a replay run
// that records must reproduce the log byte-for-byte (the fixed point); a
// corrupted, truncated, or mismatched log must be rejected with a
// descriptive Status; and fork-and-explore's control branch must continue
// the recorded timeline bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/exec/fleet_executor.h"
#include "src/exec/fleet_world.h"
#include "src/flight/sitl.h"
#include "src/hw/sensor_faults.h"
#include "src/net/fault_injector.h"
#include "src/obs/trace.h"
#include "src/replay/explore.h"
#include "src/replay/replay_log.h"
#include "src/snapshot/snapshot.h"
#include "src/util/rng.h"

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

// --- One drone, no world: SITL-level record -> replay ----------------------

// A bare SitlDrone flies one ground-station script that walks every branch
// of the flight controller's mode step: a Guided goto and a guided
// velocity, AltHold and Stabilize under RC_CHANNELS_OVERRIDE, an Auto
// mission, a geofence breach and its recovery, a GPS outage long enough for
// the glitch level-hold, then RTL into LAND. It flies once recording its
// flight plane and once replaying that recording under the same script.
const GeoPoint kSitlHome{43.6084298, -85.8110359, 0.0};
constexpr uint64_t kSitlSeed = 13;
// A bare drone has no world config to fingerprint; both flights use this.
constexpr uint64_t kSitlFingerprint = 0x5171'f1a9;

struct SitlFlight {
  std::vector<bool> waits_met;  // One per scripted wait, in script order.
  uint64_t flight_digest = 0;
  std::vector<uint32_t> modes;  // The mode at every flight-log entry.
  std::vector<std::string> status_texts;
  std::string recording;
  uint64_t replay_ticks = 0;
  uint64_t replay_underruns = 0;
};

// Flies the script, recording it; with |replay_from| every tick is also
// driven from that log.
SitlFlight FlySitlScript(const ReplayLog* replay_from) {
  SimClock clock;
  SitlDrone drone(&clock, kSitlHome, kSitlSeed);
  FlightController& fc = drone.controller();
  ReplayLogWriter writer(kSitlSeed, kSitlFingerprint);
  fc.SetPlaneRecorder(
      [&writer](const FlightPlaneSample& s) { writer.Append(s); });
  FlightPlaneSample sample;
  uint64_t cursor = 0;
  if (replay_from != nullptr) {
    fc.SetPlaneSource([&]() -> const FlightPlaneSample* {
      if (cursor >= replay_from->tick_count()) {
        return nullptr;
      }
      replay_from->ReadTick(cursor++, sample);
      return &sample;
    });
  }

  SitlFlight flight;
  auto wait = [&](const std::function<bool()>& until, SimDuration timeout) {
    flight.waits_met.push_back(drone.RunUntil(until, timeout));
  };
  auto sticks = [&fc](uint16_t roll, uint16_t pitch, uint16_t throttle,
                      uint16_t yaw) {
    RcChannelsOverride rc;
    rc.chan[0] = roll;
    rc.chan[1] = pitch;
    rc.chan[2] = throttle;
    rc.chan[3] = yaw;
    fc.HandleFrame(PackMessage(MavMessage{rc}));
  };
  auto at = [](double north_m, double east_m) {
    return FromNed(kSitlHome, NedPoint{north_m, east_m, -15});
  };

  clock.RunFor(Seconds(2));  // Sensor warm-up and the first GPS fix.
  drone.SetModeCmd(CopterMode::kGuided);
  drone.ArmCmd();
  drone.TakeoffCmd(15);
  wait(
      [&] {
        return std::fabs(drone.physics().truth().position.altitude_m - 15) <
               1;
      },
      Seconds(40));
  const GeoPoint goto_target = at(25, 0);
  drone.GotoCmd(goto_target);
  wait([&] { return drone.DistanceTo(goto_target) < 2; }, Seconds(60));
  drone.VelocityCmd(0, 2, 0);
  clock.RunFor(Seconds(4));

  // AltHold: tilt right and climb on the sticks. Stabilize: tilt and yaw
  // on the sticks with the throttle released (hover thrust).
  sticks(1560, 1500, 1600, 1500);
  drone.SetModeCmd(CopterMode::kAltHold);
  clock.RunFor(Seconds(3));
  sticks(1450, 1540, 0, 1600);
  drone.SetModeCmd(CopterMode::kStabilize);
  clock.RunFor(Seconds(2));
  sticks(0, 0, 0, 0);

  fc.SetMission({at(20, 10), at(0, 25)});
  drone.SetModeCmd(CopterMode::kAuto);
  wait([&] { return fc.mode() == CopterMode::kLoiter; }, Seconds(120));

  GeofenceConfig fence;
  fence.enabled = true;
  fence.center = kSitlHome;
  fence.radius_m = 40;
  fence.max_altitude_m = 30;
  fc.SetGeofence(fence);
  drone.SetModeCmd(CopterMode::kGuided);
  drone.GotoCmd(at(0, 200));
  wait([&] { return fc.fence_recovering(); }, Seconds(60));
  wait([&] { return !fc.fence_recovering(); }, Seconds(120));
  // Back well inside the fence, so the outage's drift cannot breach it.
  const GeoPoint inside = at(0, 10);
  drone.SetModeCmd(CopterMode::kGuided);
  drone.GotoCmd(inside);
  wait([&] { return drone.DistanceTo(inside) < 2; }, Seconds(60));

  // The fix goes stale after 2 s of the outage; the glitch holds level
  // until it returns. A replaying drone skips the reads, so the fault
  // window only acts through the recorded estimate.
  EXPECT_TRUE(drone.sensor_faults()
                  .AddDropout(SensorChannel::kGps, clock.now(), Seconds(6))
                  .ok());
  wait([&] { return fc.gps_glitch(); }, Seconds(10));
  wait([&] { return !fc.gps_glitch(); }, Seconds(30));

  drone.RtlCmd();
  wait([&] { return !fc.armed(); }, Seconds(180));

  flight.flight_digest = FlightLogDigest(fc.flight_log());
  for (const FlightLogEntry& entry : fc.flight_log().entries()) {
    flight.modes.push_back(entry.mode);
  }
  flight.status_texts = drone.status_texts();
  flight.recording = writer.Finalize(ReplayFooter{});
  flight.replay_ticks = fc.replay_ticks();
  flight.replay_underruns = fc.replay_underruns();
  return flight;
}

TEST(SitlReplayTest, ScriptedFlightReplaysBitIdentically) {
  const SitlFlight recorded = FlySitlScript(nullptr);
  ASSERT_EQ(recorded.waits_met,
            std::vector<bool>(recorded.waits_met.size(), true))
      << "the live flight missed a scripted wait";
  // The script reached every branch it is meant to cover.
  for (const char* text :
       {"Mode ALT_HOLD", "Mode STABILIZE", "Mode AUTO", "Mission complete",
        "Geofence breached", "Geofence recovered; loitering",
        "GPS glitch: holding level attitude", "GPS reacquired; loitering",
        "RTL: reached home, landing", "Disarming motors"}) {
    EXPECT_NE(std::find(recorded.status_texts.begin(),
                        recorded.status_texts.end(), text),
              recorded.status_texts.end())
        << "no StatusText \"" << text << "\"";
  }

  auto log = ReplayLog::FromBytes(recorded.recording, kSitlSeed,
                                  kSitlFingerprint);
  ASSERT_TRUE(log.ok()) << log.status();
  const SitlFlight replayed = FlySitlScript(&*log);
  EXPECT_EQ(replayed.replay_ticks, log->tick_count());
  EXPECT_EQ(replayed.replay_underruns, 0u);
  EXPECT_EQ(replayed.waits_met, recorded.waits_met);
  EXPECT_EQ(replayed.flight_digest, recorded.flight_digest);
  EXPECT_EQ(replayed.modes, recorded.modes);
  EXPECT_EQ(replayed.status_texts, recorded.status_texts);
  EXPECT_TRUE(replayed.recording == recorded.recording)
      << "the replaying drone recorded " << replayed.recording.size()
      << " bytes against " << recorded.recording.size();
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

TEST(ReplayLogTest, RejectsAnOtherFormatVersion) {
  // The little-endian version word follows the 8-byte magic. A log in an
  // older format (version 2 put PLAN ahead of the ticks and checksummed
  // them byte-wise; version 1 sampled sensors with libm and the polar
  // normal sampler) would be misread or replay into different numerics, so
  // any other version is refused outright.
  for (uint32_t version : {kReplayLogVersion - 1, kReplayLogVersion + 1}) {
    std::string bytes = MakeLog(7, 0x99);
    for (int i = 0; i < 4; ++i) {
      bytes[8 + i] = static_cast<char>((version >> (8 * i)) & 0xff);
    }
    auto parsed = ReplayLog::FromBytes(bytes, 7, 0x99);
    ASSERT_FALSE(parsed.ok()) << "version " << version;
    EXPECT_NE(parsed.status().message().find("version"), std::string::npos)
        << parsed.status().ToString();
  }
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

// The tick region follows magic, version, seed, fingerprint, the "TICK"
// tag and the tick count; its words are counted from its first byte.
constexpr size_t kTickRegionAt = 8 + 4 + 8 + 8 + 4 + 8;

size_t SampleBytes() {
  SnapshotWriter w;
  FlightPlaneSample sample;
  VisitValue(w, sample);
  return w.bytes().size();
}

TEST(ReplayLogTest, RejectsATwoWordHighBitFlip) {
  // Word-wise FNV-1a without the xorshift misses this: flipping bit 63 of
  // a word flips only bit 63 of the state, and the same flip in the next
  // word cancels it. Try every pair of consecutive words in the region.
  const std::string bytes = MakeLog(7, 0x99);
  ASSERT_TRUE(ReplayLog::FromBytes(bytes, 7, 0x99).ok());
  const size_t words = 4 * SampleBytes() / 8;
  for (size_t word = 0; word + 1 < words; ++word) {
    std::string bad = bytes;
    bad[kTickRegionAt + 8 * word + 7] ^= static_cast<char>(0x80);
    bad[kTickRegionAt + 8 * word + 15] ^= static_cast<char>(0x80);
    auto parsed = ReplayLog::FromBytes(bad, 7, 0x99);
    ASSERT_FALSE(parsed.ok()) << "words " << word << " and " << word + 1;
    EXPECT_NE(parsed.status().message().find("checksum"), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ReplayLogTest, RejectsEverySingleBitFlipInTheTickRegion) {
  // Two 231-byte ticks: 57 whole words and a 6-byte tail, ~3.7k flips.
  const std::string bytes = MakeLog(7, 0x99, /*ticks=*/2);
  const size_t region = 2 * SampleBytes();
  ASSERT_NE(region % 8, 0u);
  for (size_t at = kTickRegionAt; at < kTickRegionAt + region; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = bytes;
      bad[at] ^= static_cast<char>(1 << bit);
      auto parsed = ReplayLog::FromBytes(bad, 7, 0x99);
      ASSERT_FALSE(parsed.ok()) << "byte " << at << " bit " << bit;
      EXPECT_NE(parsed.status().message().find("checksum"),
                std::string::npos)
          << parsed.status().ToString();
    }
  }
}

TEST(ReplayLogTest, TickRegionHoldsTheSnapshotWritersBytes) {
  // The writer stores words straight into its buffer; they must be the
  // bytes the generic SnapshotWriter makes of the same VisitValue list.
  // DistinctSample sets every field, its bools alternate with k, and three
  // 231-byte ticks make a region that is not a whole number of words.
  constexpr int kTicks = 3;
  ReplayLogWriter writer(/*seed=*/42, /*config_fingerprint=*/0xabcdef);
  SnapshotWriter expected;
  for (int k = 0; k < kTicks; ++k) {
    FlightPlaneSample sample = DistinctSample(k);
    writer.Append(sample);
    VisitValue(expected, sample);
  }
  ASSERT_NE(expected.bytes().size() % 8, 0u);
  const std::string bytes = writer.Finalize(ReplayFooter{});
  ASSERT_GE(bytes.size(), kTickRegionAt + expected.bytes().size());
  EXPECT_TRUE(bytes.compare(kTickRegionAt, expected.bytes().size(),
                            expected.bytes()) == 0);

  auto parsed = ReplayLog::FromBytes(bytes, 42, 0xabcdef);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->tick_count(), static_cast<uint64_t>(kTicks));
  for (int k = 0; k < kTicks; ++k) {
    FlightPlaneSample tick;
    parsed->ReadTick(static_cast<uint64_t>(k), tick);
    ExpectSameSample(DistinctSample(k), tick, k);
  }
}

TEST(ReplayLogTest, ZeroTickLogWithoutAPlanRoundTrips) {
  ReplayFooter footer;
  footer.have_sensor_counters = true;
  footer.sensor_counters.dropouts = 3;
  footer.sensor_counters.stuck_reads = 4;
  footer.sensor_counters.corrupted_reads = 5;
  footer.digest = 0x1111;
  footer.flight_digest = 0x2222;
  footer.metrics_digest = 0x3333;
  footer.trace_hash = 0x4444;
  ReplayLogWriter writer(/*seed=*/5, /*config_fingerprint=*/0x55);
  const std::string bytes = writer.Finalize(footer);
  EXPECT_EQ(writer.tick_count(), 0u);
  // Header and empty TICK section, "PLAN" + flag, and the 70-byte footer.
  EXPECT_EQ(bytes.size(), kTickRegionAt + 4 + 1 + 70);

  auto parsed = ReplayLog::FromBytes(bytes, 5, 0x55);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tick_count(), 0u);
  EXPECT_FALSE(parsed->have_plan());
  EXPECT_TRUE(parsed->plan().stops.empty());
  const ReplayFooter& got = parsed->footer();
  EXPECT_TRUE(got.have_sensor_counters);
  EXPECT_EQ(got.sensor_counters.dropouts, 3u);
  EXPECT_EQ(got.sensor_counters.stuck_reads, 4u);
  EXPECT_EQ(got.sensor_counters.corrupted_reads, 5u);
  EXPECT_EQ(got.digest, 0x1111u);
  EXPECT_EQ(got.flight_digest, 0x2222u);
  EXPECT_EQ(got.metrics_digest, 0x3333u);
  EXPECT_EQ(got.trace_hash, 0x4444u);
  EXPECT_FALSE(got.completed);
}

TEST(ReplayLogTest, PlanSetAfterTheTicksLandsInTheLog) {
  // The plan is written after the ticks, so SetPlan may come at any point
  // before Finalize and yields the same log wherever it comes.
  PlannedRoute route;
  route.drone = 2;
  route.feasible = true;
  route.total_energy_j = 4321.5;
  route.total_time_s = 98.25;
  route.stops.push_back(PlannedStop{/*job_index=*/3,
                                    /*arrival_energy_j=*/111.5,
                                    /*arrival_time_s=*/12.75});
  route.stops.push_back(PlannedStop{/*job_index=*/1,
                                    /*arrival_energy_j=*/222.5,
                                    /*arrival_time_s=*/40.5});
  constexpr int kTicks = 2;
  ReplayLogWriter late(/*seed=*/42, /*config_fingerprint=*/0xabcdef);
  ReplayLogWriter early(/*seed=*/42, /*config_fingerprint=*/0xabcdef);
  early.SetPlan(route);
  for (int k = 0; k < kTicks; ++k) {
    late.Append(DistinctSample(k));
    early.Append(DistinctSample(k));
  }
  late.SetPlan(route);
  const std::string bytes = late.Finalize(ReplayFooter{});
  EXPECT_TRUE(bytes == early.Finalize(ReplayFooter{}));

  auto parsed = ReplayLog::FromBytes(bytes, 42, 0xabcdef);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->have_plan());
  const PlannedRoute& plan = parsed->plan();
  EXPECT_EQ(plan.drone, 2);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.total_energy_j, 4321.5);
  EXPECT_EQ(plan.total_time_s, 98.25);
  ASSERT_EQ(plan.stops.size(), 2u);
  for (size_t i = 0; i < plan.stops.size(); ++i) {
    EXPECT_EQ(plan.stops[i].job_index, route.stops[i].job_index) << i;
    EXPECT_EQ(plan.stops[i].arrival_energy_j,
              route.stops[i].arrival_energy_j) << i;
    EXPECT_EQ(plan.stops[i].arrival_time_s, route.stops[i].arrival_time_s)
        << i;
  }
  ASSERT_EQ(parsed->tick_count(), static_cast<uint64_t>(kTicks));
  for (int k = 0; k < kTicks; ++k) {
    FlightPlaneSample tick;
    parsed->ReadTick(static_cast<uint64_t>(k), tick);
    ExpectSameSample(DistinctSample(k), tick, k);
  }
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
  // The tick checksum does not cover the PLAN section, so a corrupt stop
  // count must be caught by its own bound, not by an allocation failure.
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

// --- Seeded mutations of ReplayLog::FromBytes ----------------------------

// A log's bytes are untrusted input: whatever a mutation did, FromBytes
// either refuses them with a Status or returns a view whose every tick lies
// inside the bytes and decodes (the ASan/UBSan build checks the decode).
// Returns whether the bytes were accepted.
bool AcceptedAsDecodableView(std::string bytes, uint64_t seed,
                             uint64_t fingerprint, const std::string& what) {
  auto parsed = ReplayLog::FromBytes(
      std::make_shared<const std::string>(std::move(bytes)), seed,
      fingerprint);
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.status().message().empty()) << what;
    return false;
  }
  const size_t room =
      parsed->byte_size() - std::min(parsed->byte_size(), kTickRegionAt);
  EXPECT_LE(parsed->tick_count(), room / SampleBytes()) << what;
  if (parsed->tick_count() <= room / SampleBytes()) {
    FlightPlaneSample tick;
    for (uint64_t i = 0; i < parsed->tick_count(); ++i) {
      parsed->ReadTick(i, tick);
    }
  }
  return true;
}

std::string CorpusLog(uint64_t seed, uint64_t fingerprint, int ticks,
                      int stops) {
  ReplayLogWriter writer(seed, fingerprint);
  for (int k = 0; k < ticks; ++k) {
    writer.Append(DistinctSample(k));
  }
  if (stops >= 0) {
    PlannedRoute route;
    route.drone = 1;
    route.feasible = true;
    route.total_energy_j = 500.5;
    route.total_time_s = 60.25;
    for (int i = 0; i < stops; ++i) {
      route.stops.push_back(
          PlannedStop{static_cast<size_t>(i), 10.0 * i, 2.5 * i});
    }
    writer.SetPlan(route);
  }
  ReplayFooter footer;
  footer.digest = 0x5151;
  footer.completed = true;
  return writer.Finalize(footer);
}

TEST(ReplayLogTest, SeededMutationsReturnAStatusOrADecodableView) {
  // Corpus: a world's own recording, and two writer-made logs under the
  // same seed and fingerprint (so splices get past the header), one with a
  // three-stop plan and one with none.
  constexpr uint64_t kSeed = 21;
  ReplayLogStore store;
  FleetWorldConfig config = SmallConfig();
  config.record_into = &store;
  ASSERT_FALSE(RunFleetWorld(config, MakeContext(kSeed)).infra_failure);
  ASSERT_NE(store.Get(kSeed), nullptr);
  const std::string recorded = *store.Get(kSeed);
  uint64_t fingerprint = 0;
  ASSERT_GE(recorded.size(), kTickRegionAt);
  std::memcpy(&fingerprint, recorded.data() + 8 + 4 + 8, 8);

  struct Base {
    std::string bytes;
    size_t stop_count_at = 0;  // 0 when the log carries no plan.
  };
  std::vector<Base> corpus;
  for (const std::string& bytes :
       {recorded, CorpusLog(kSeed, fingerprint, 5, 3),
        CorpusLog(kSeed, fingerprint, 2, -1)}) {
    auto parsed = ReplayLog::FromBytes(bytes, kSeed, fingerprint);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    // "PLAN", the flag, then drone, feasible and the two totals.
    const size_t plan_at =
        kTickRegionAt +
        static_cast<size_t>(parsed->tick_count()) * SampleBytes();
    corpus.push_back(
        Base{bytes, parsed->have_plan() ? plan_at + 4 + 1 + 8 + 1 + 8 + 8
                                        : 0});
  }

  Rng rng(0x6d757461);
  auto below = [&rng](size_t n) {
    return static_cast<size_t>(rng.NextU64Below(n));
  };
  constexpr int kMutations = 2048;
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    // The recording is ~10k times a small log's size: one mutation in 32.
    const Base& base = corpus[i % 32 == 0 ? 0 : 1 + i % 2];
    std::string bytes = base.bytes;
    const uint64_t ticks = (bytes.size() - kTickRegionAt) / SampleBytes();
    std::string what = "mutation " + std::to_string(i) + ": ";
    switch (below(6)) {
      case 0: {  // One to three bit flips anywhere.
        const size_t flips = 1 + below(3);
        for (size_t f = 0; f < flips; ++f) {
          const size_t at = below(bytes.size());
          bytes[at] ^= static_cast<char>(1 << below(8));
          what += "flip@" + std::to_string(at) + " ";
        }
        break;
      }
      case 1: {  // Truncation.
        bytes.resize(below(bytes.size()));
        what += "truncate to " + std::to_string(bytes.size());
        break;
      }
      case 2: {  // Splice: a prefix of this log, a suffix of another.
        const std::string& other = corpus[below(corpus.size())].bytes;
        const size_t cut = below(bytes.size() + 1);
        const size_t from = below(other.size() + 1);
        bytes = bytes.substr(0, cut) + other.substr(from);
        what += "splice " + std::to_string(cut) + "+" + std::to_string(from);
        break;
      }
      case 3: {  // Tick count overwrite.
        constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
        const uint64_t values[] = {0,
                                   1,
                                   ticks - 1,
                                   ticks + 1,
                                   2 * ticks,
                                   ticks + (1ull << 32),
                                   kMax / SampleBytes(),
                                   kMax / SampleBytes() + 1,
                                   1ull << 63,
                                   kMax,
                                   rng.NextU64()};
        const uint64_t count = values[below(std::size(values))];
        std::memcpy(bytes.data() + kTickRegionAt - 8, &count, 8);
        what += "tick count " + std::to_string(count);
        break;
      }
      case 4: {  // Stop count overwrite (or the footer, for a plan-less log).
        const uint32_t values[] = {0, 1, 2, 4, 0x7fffffff, 0x80000000,
                                   0xffffffff,
                                   static_cast<uint32_t>(rng.NextU64())};
        const uint32_t count = values[below(std::size(values))];
        const size_t at = base.stop_count_at != 0 ? base.stop_count_at
                                                  : bytes.size() - 4;
        std::memcpy(bytes.data() + at, &count, 4);
        what += "stop count " + std::to_string(count);
        break;
      }
      default: {  // A word of zeros, ones or noise anywhere.
        const size_t at = below(bytes.size() - 7);
        const uint64_t words[] = {0, ~0ull, rng.NextU64()};
        std::memcpy(bytes.data() + at, &words[below(3)], 8);
        what += "word@" + std::to_string(at);
        break;
      }
    }
    if (!AcceptedAsDecodableView(std::move(bytes), kSeed, fingerprint, what)) {
      ++rejected;
    }
  }
  // Most mutations break the log; a few (a flip in a footer digest, a
  // count overwritten with its own value) leave a log that still parses.
  EXPECT_GT(rejected, kMutations / 2);
  EXPECT_LT(rejected, kMutations);
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
