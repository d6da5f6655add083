// Campaign engine tests: verdict accounting (pass/fail/unexpected), failure
// bucketing with first-divergence triage against the nominal twin, report
// determinism across repeats and thread counts, and the repro path. Worlds
// here are deliberately tiny (1 tenant, short dwell, light annealing) so
// the whole file stays in test-suite time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/net/fault_injector.h"
#include "src/scenario/campaign.h"
#include "src/scenario/generator.h"
#include "src/scenario/manifest.h"
#include "src/scenario/scenario.h"
#include "src/util/logging.h"

namespace androne {
namespace {

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMinLogLevel(LogLevel::kWarning); }
  void TearDown() override { SetMinLogLevel(LogLevel::kInfo); }

  static ScenarioTemplate SmallTemplate(const std::string& name) {
    ScenarioTemplate tmpl;
    tmpl.name = name;
    tmpl.tenants_min = 1;
    tmpl.tenants_max = 1;
    tmpl.dwell_s = 2;
    tmpl.spread_m = 60;
    tmpl.annealing = 40;
    return tmpl;
  }

  static std::vector<ScenarioSpec> Expand(const CampaignSpec& campaign) {
    auto scenarios = ExpandScenarios(campaign);
    EXPECT_TRUE(scenarios.ok()) << scenarios.status().message();
    return std::move(scenarios).value();
  }
};

TEST_F(CampaignTest, CountsPassFailAndUnexpectedVerdicts) {
  CampaignSpec campaign;
  campaign.name = "verdicts";
  campaign.seed = 5;

  ScenarioTemplate pass = SmallTemplate("pass");
  pass.repeat = 2;
  pass.assertions = {*ParseAssertion("completed == 1")};
  campaign.templates.push_back(pass);

  // Failing is this family's contract: it must not count as unexpected.
  ScenarioTemplate seeded = SmallTemplate("seeded");
  seeded.expect_fail = true;
  seeded.assertions = {*ParseAssertion("waypoints_visited >= 100")};
  campaign.templates.push_back(seeded);

  // Fails without expect_fail: the contract violation the CI gate counts.
  ScenarioTemplate broken = SmallTemplate("broken");
  broken.assertions = {*ParseAssertion("downlink_frames >= 1000000000")};
  campaign.templates.push_back(broken);

  std::vector<ScenarioSpec> scenarios = Expand(campaign);
  ASSERT_EQ(scenarios.size(), 4u);

  CampaignOptions options;
  options.name = campaign.name;
  options.triage = false;  // Bucketing only; triage covered separately.
  CampaignReport report = CampaignRunner(options).Run(scenarios);

  EXPECT_EQ(report.scenarios, 4);
  EXPECT_EQ(report.passed, 2);
  EXPECT_EQ(report.failed, 2);
  EXPECT_EQ(report.skipped, 0);
  EXPECT_EQ(report.unexpected, 1);  // Only "broken".
  ASSERT_EQ(report.buckets.size(), 2u);
  // Buckets sort by key: family first.
  EXPECT_EQ(report.buckets[0].key,
            "broken|downlink_frames >= 1000000000");
  EXPECT_FALSE(report.buckets[0].expected);
  EXPECT_EQ(report.buckets[0].representative, "broken/t1#0");
  EXPECT_EQ(report.buckets[1].key, "seeded|waypoints_visited >= 100");
  EXPECT_TRUE(report.buckets[1].expected);
  EXPECT_EQ(report.buckets[1].count, 1);
  // Triage was off: no divergence analysis ran.
  EXPECT_TRUE(report.buckets[0].first_divergence.empty());
}

// Fault parameters are only checked to be finite, so these manifests parse.
// At 1e12 the mag heading ramps toward 3e13 rad, which the estimator wraps
// in O(1); at 1e308 the ramp overflows to inf and the wrapped heading is
// NaN, which the estimator's gate must reject. Either way the world must
// finish.
TEST_F(CampaignTest, HugeMagBiasManifestCompletes) {
  for (const char* p0 : {"1e12", "1e308"}) {
    SCOPED_TRACE(p0);
    auto campaign = ParseCampaignManifest(std::string(R"(
<campaign name="mag-bias" seed="2026">
  <scenario annealing="120" dwell_s="5" name="mag_bias" repeat="1">
    <sensor_fault channel="mag" dur_s="30" kind="bias_drift"
                  p0=")") + p0 + R"(" start_s="20"/>
    <assert expr="completed == 1"/>
  </scenario>
</campaign>)");
    ASSERT_TRUE(campaign.ok()) << campaign.status().message();
    std::vector<ScenarioSpec> scenarios = Expand(*campaign);
    ASSERT_EQ(scenarios.size(), 1u);

    CampaignOptions options;
    options.name = campaign->name;
    options.triage = false;
    CampaignReport report = CampaignRunner(options).Run(scenarios);
    EXPECT_EQ(report.scenarios, 1);
    EXPECT_EQ(report.passed, 1);
    EXPECT_EQ(report.unexpected, 0);
  }
}

// An IMU bias past the plausible-rate bound excludes the gyro, which the
// Simplex supervisor treats as a hard violation (DESIGN.md §7): it descends
// and lands the drone, so the world ends with completed = 0 as a scenario
// outcome, not an infrastructure failure. A ramp that overflows to inf is
// rejected like the finite one and flies the identical flight.
TEST_F(CampaignTest, OverflowingImuBiasLandsLikeAFiniteOne) {
  std::vector<uint64_t> flight_digests;
  for (const char* p0 : {"1e12", "1e308"}) {
    SCOPED_TRACE(p0);
    auto campaign = ParseCampaignManifest(std::string(R"(
<campaign name="imu-bias" seed="2026">
  <scenario annealing="120" dwell_s="5" name="imu_bias" repeat="1">
    <sensor_fault channel="imu" dur_s="30" kind="bias_drift"
                  p0=")") + p0 + R"(" start_s="20"/>
  </scenario>
</campaign>)");
    ASSERT_TRUE(campaign.ok()) << campaign.status().message();
    std::vector<ScenarioSpec> scenarios = Expand(*campaign);
    ASSERT_EQ(scenarios.size(), 1u);
    StatusOr<WorldResult> world = CampaignRunner::Repro(
        scenarios, scenarios[0].name, /*trace_categories=*/0);
    ASSERT_TRUE(world.ok()) << world.status().message();
    EXPECT_FALSE(world->completed);
    EXPECT_FALSE(world->infra_failure);
    flight_digests.push_back(world->flight_digest);
  }
  ASSERT_EQ(flight_digests.size(), 2u);
  EXPECT_EQ(flight_digests[0], flight_digests[1]);
}

TEST_F(CampaignTest, TriagePinsFirstDivergentEventForChaosFailures) {
  CampaignSpec campaign;
  campaign.name = "triage";
  campaign.seed = 11;

  // Chaos + impossible assertion: a link outage drops deliveries, so the
  // faulted trace must diverge from the fault-stripped nominal twin.
  ScenarioTemplate chaotic = SmallTemplate("chaotic");
  chaotic.expect_fail = true;
  JitteredWindow outage;
  outage.window.kind = static_cast<int>(FaultKind::kOutage);
  outage.window.scope = kFaultScopeAll;
  outage.window.start = SecondsF(5);
  outage.window.end = SecondsF(15);
  chaotic.net_windows.push_back(outage);
  chaotic.assertions = {*ParseAssertion("waypoints_visited >= 100")};
  campaign.templates.push_back(chaotic);

  // No chaos, just a miscalibrated assertion: faulted and nominal runs are
  // the same world, so triage must report "identical".
  ScenarioTemplate miscalibrated = SmallTemplate("miscalibrated");
  miscalibrated.expect_fail = true;
  miscalibrated.assertions = {*ParseAssertion("waypoints_visited >= 100")};
  campaign.templates.push_back(miscalibrated);

  CampaignOptions options;
  options.name = campaign.name;
  std::vector<ScenarioSpec> scenarios = Expand(campaign);
  CampaignReport report = CampaignRunner(options).Run(scenarios);

  ASSERT_EQ(report.buckets.size(), 2u);
  const FailureBucket& chaos_bucket = report.buckets[0];
  ASSERT_EQ(chaos_bucket.key, "chaotic|waypoints_visited >= 100");
  EXPECT_NE(chaos_bucket.first_divergence, "identical");
  EXPECT_NE(chaos_bucket.first_divergence.find("event line"),
            std::string::npos)
      << chaos_bucket.first_divergence;

  const FailureBucket& calm_bucket = report.buckets[1];
  ASSERT_EQ(calm_bucket.key, "miscalibrated|waypoints_visited >= 100");
  EXPECT_EQ(calm_bucket.first_divergence, "identical");
}

TEST_F(CampaignTest, ReportIsByteIdenticalAcrossRepeatsAndThreadCounts) {
  CampaignSpec campaign;
  campaign.name = "determinism";
  campaign.seed = 17;
  ScenarioTemplate tmpl = SmallTemplate("mixed");
  tmpl.repeat = 5;
  tmpl.assertions = {*ParseAssertion("completed == 1")};
  campaign.templates.push_back(tmpl);
  ScenarioTemplate seeded = SmallTemplate("seeded");
  seeded.expect_fail = true;
  seeded.assertions = {*ParseAssertion("waypoints_visited >= 100")};
  campaign.templates.push_back(seeded);
  std::vector<ScenarioSpec> scenarios = Expand(campaign);

  std::string reference;
  for (int threads : {1, 1, 2, 8}) {
    CampaignOptions options;
    options.name = campaign.name;
    options.threads = threads;
    CampaignReport report = CampaignRunner(options).Run(scenarios);
    if (reference.empty()) {
      reference = report.ToText();
      EXPECT_EQ(report.unexpected, 0);
    } else {
      EXPECT_EQ(report.ToText(), reference) << "threads=" << threads;
    }
  }
  // The digest is a pure function of the text.
  EXPECT_NE(reference.find("campaign determinism"), std::string::npos);
}

TEST_F(CampaignTest, ReproReplaysOneScenarioWithFullTracing) {
  CampaignSpec campaign;
  campaign.seed = 23;
  ScenarioTemplate tmpl = SmallTemplate("replay");
  JitteredWindow noise;
  noise.window.kind = static_cast<int>(SensorFaultKind::kNoiseInflation);
  noise.window.scope = static_cast<int>(SensorChannel::kImu);
  noise.window.start = SecondsF(5);
  noise.window.end = SecondsF(20);
  noise.window.p0 = 0.03;
  tmpl.sensor_windows.push_back(noise);
  campaign.templates.push_back(tmpl);
  std::vector<ScenarioSpec> scenarios = Expand(campaign);

  auto first = CampaignRunner::Repro(scenarios, "replay/t1#0");
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_EQ(first->scenario, "replay/t1#0");
  EXPECT_EQ(first->seed, scenarios[0].seed);
  EXPECT_FALSE(first->trace_text.empty());
  EXPECT_TRUE(first->failed_assertions.empty());

  // Bit-identical replay: same digest, same trace bytes.
  auto second = CampaignRunner::Repro(scenarios, "replay/t1#0");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->digest, first->digest);
  EXPECT_EQ(second->trace_text, first->trace_text);

  auto missing = CampaignRunner::Repro(scenarios, "replay/t9#9");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("no scenario named"),
            std::string::npos);
}

TEST_F(CampaignTest, CrashFamilyRecoversAndPassesRecoveryAssertions) {
  CampaignSpec campaign;
  campaign.seed = 41;
  ScenarioTemplate tmpl = SmallTemplate("crashrec");
  tmpl.crash.at_s = {4};
  tmpl.crash.checkpoint_s = 2;
  tmpl.assertions = {*ParseAssertion("completed == 1"),
                     *ParseAssertion("recovery.crashes >= 1"),
                     *ParseAssertion("recovery.restores >= 1"),
                     *ParseAssertion("recovery.fixed_point_ok == 1"),
                     *ParseAssertion("recovery.gave_up == 0")};
  campaign.templates.push_back(tmpl);
  std::vector<ScenarioSpec> scenarios = Expand(campaign);

  CampaignOptions options;
  options.triage = false;
  CampaignReport report = CampaignRunner(options).Run(scenarios);
  EXPECT_EQ(report.passed, 1);
  EXPECT_EQ(report.unexpected, 0) << report.ToText();
  // Recovery bookkeeping must stay out of the merged metrics — a recovered
  // world merges identically to an uninterrupted one.
  EXPECT_EQ(report.metrics.counters.count("recovery.crashes"), 0u);
  EXPECT_EQ(report.metrics.counters.count("recovery.restores"), 0u);
}

TEST_F(CampaignTest, DigestAssertionPinsAWorldAndCatchesDrift) {
  CampaignSpec campaign;
  campaign.seed = 43;
  campaign.templates.push_back(SmallTemplate("pinned"));
  std::vector<ScenarioSpec> scenarios = Expand(campaign);

  // Learn the world's digest once, then pin it: the assertion must pass.
  auto probe = CampaignRunner::Repro(scenarios, "pinned/t1#0");
  ASSERT_TRUE(probe.ok()) << probe.status().message();
  AssertionSpec pin;
  pin.metric = "digest";
  pin.op = CompareOp::kEq;
  pin.is_digest = true;
  pin.digest_value = probe->digest;
  scenarios[0].assertions = {pin};

  CampaignOptions options;
  options.triage = false;
  CampaignReport pinned = CampaignRunner(options).Run(scenarios);
  EXPECT_EQ(pinned.passed, 1);
  EXPECT_EQ(pinned.unexpected, 0) << pinned.ToText();

  // One bit of drift fails with the canonical hex signature in the bucket.
  pin.digest_value = probe->digest ^ 1;
  scenarios[0].assertions = {pin};
  CampaignReport drifted = CampaignRunner(options).Run(scenarios);
  EXPECT_EQ(drifted.failed, 1);
  ASSERT_EQ(drifted.buckets.size(), 1u);
  EXPECT_EQ(drifted.buckets[0].key, "pinned|" + pin.ToExpr());
}

TEST_F(CampaignTest, CrashLoopScenarioExportsSupervisorCounters) {
  CampaignSpec campaign;
  campaign.seed = 31;
  ScenarioTemplate tmpl = SmallTemplate("crashy");
  tmpl.crash_loop.count = 2;
  tmpl.crash_loop.start_s = 2;
  tmpl.crash_loop.period_s = 3;
  tmpl.assertions = {*ParseAssertion("completed == 1"),
                     *ParseAssertion("supervisor.restarts >= 1")};
  campaign.templates.push_back(tmpl);
  std::vector<ScenarioSpec> scenarios = Expand(campaign);

  CampaignOptions options;
  CampaignReport report = CampaignRunner(options).Run(scenarios);
  EXPECT_EQ(report.passed, 1);
  EXPECT_EQ(report.unexpected, 0);
  auto restarts = report.metrics.counters.find("supervisor.restarts");
  ASSERT_NE(restarts, report.metrics.counters.end());
  EXPECT_GE(restarts->second, 1.0);
  EXPECT_GE(report.metrics.counters.at("supervisor.episodes"), 1.0);
}

}  // namespace
}  // namespace androne
