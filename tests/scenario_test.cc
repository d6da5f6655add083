// Scenario DSL tests: assertion expression parsing, XML manifest loading
// with descriptive errors on every malformed construct, the canonical-dump
// round-trip contract, and deterministic template expansion.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "src/scenario/campaign.h"
#include "src/scenario/generator.h"
#include "src/scenario/manifest.h"
#include "src/scenario/scenario.h"
#include "src/util/rng.h"
#include "src/util/xml.h"

namespace androne {
namespace {

// --- Assertion expressions ---

TEST(AssertionTest, ParsesEveryOperator) {
  struct Case {
    const char* expr;
    CompareOp op;
  };
  const Case cases[] = {
      {"x <= 3", CompareOp::kLe}, {"x >= 3", CompareOp::kGe},
      {"x == 3", CompareOp::kEq}, {"x != 3", CompareOp::kNe},
      {"x < 3", CompareOp::kLt},  {"x > 3", CompareOp::kGt},
  };
  for (const Case& c : cases) {
    auto parsed = ParseAssertion(c.expr);
    ASSERT_TRUE(parsed.ok()) << c.expr;
    EXPECT_EQ(parsed->op, c.op);
    EXPECT_EQ(parsed->metric, "x");
    EXPECT_DOUBLE_EQ(parsed->value, 3.0);
  }
}

TEST(AssertionTest, ToExprIsCanonicalAndReparses) {
  auto parsed = ParseAssertion("  tenants_rejected   >=    1.0 ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ToExpr(), "tenants_rejected >= 1");
  auto again = ParseAssertion(parsed->ToExpr());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToExpr(), parsed->ToExpr());
}

TEST(AssertionTest, RejectsMalformedExpressions) {
  EXPECT_FALSE(ParseAssertion("").ok());
  EXPECT_FALSE(ParseAssertion("completed ==").ok());
  EXPECT_FALSE(ParseAssertion("completed == 1 extra").ok());
  auto bad_op = ParseAssertion("completed ~= 1");
  ASSERT_FALSE(bad_op.ok());
  EXPECT_NE(bad_op.status().message().find("unknown operator"),
            std::string::npos);
  auto bad_number = ParseAssertion("completed == one");
  ASSERT_FALSE(bad_number.ok());
}

TEST(AssertionTest, EvaluationResolvesAcrossResultLayers) {
  WorldResult result;
  result.completed = true;
  result.counters["waypoints_visited"] = 4;
  result.metrics.counters["supervisor.restarts"] = 2;
  result.metrics.gauges["container.memory_mb"] = 512;

  std::vector<AssertionSpec> assertions = {
      *ParseAssertion("completed == 1"),
      *ParseAssertion("waypoints_visited >= 4"),
      *ParseAssertion("supervisor.restarts >= 1"),
      *ParseAssertion("container.memory_mb <= 1024"),
  };
  EXPECT_TRUE(EvaluateAssertions(assertions, result).empty());

  // A missing metric fails with a distinct signature, never passes
  // vacuously.
  std::vector<AssertionSpec> missing = {*ParseAssertion("no.such.metric > 0")};
  auto failed = EvaluateAssertions(missing, result);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], "no.such.metric > 0 [missing]");
}

TEST(AssertionTest, DigestGrammarParsesToCanonicalHex) {
  auto parsed = ParseAssertion("digest == 0x42");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed->is_digest);
  EXPECT_EQ(parsed->digest_value, 0x42u);
  EXPECT_EQ(parsed->ToExpr(), "digest == 0x0000000000000042");
  auto again = ParseAssertion(parsed->ToExpr());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToExpr(), parsed->ToExpr());

  // Uppercase hex is accepted and canonicalized to lowercase.
  auto upper = ParseAssertion("flight_digest != 0XDEADBEEF");
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(upper->ToExpr(), "flight_digest != 0x00000000deadbeef");
}

TEST(AssertionTest, DigestAssertionsCompareExact64Bits) {
  WorldResult result;
  result.completed = true;
  // A value past 2^53: a round-trip through double would lose the low
  // bits and make the == pass against a corrupted digest.
  result.digest = 0x1f00badc0ffee123ull;
  result.flight_digest = 0x42;

  std::vector<AssertionSpec> good = {
      *ParseAssertion("digest == 0x1f00badc0ffee123"),
      *ParseAssertion("flight_digest == 0x42"),
      *ParseAssertion("digest != 0x1f00badc0ffee124"),
  };
  EXPECT_TRUE(EvaluateAssertions(good, result).empty());

  // One low bit off must fail — and the failure signature is canonical.
  std::vector<AssertionSpec> off_by_a_bit = {
      *ParseAssertion("digest == 0x1f00badc0ffee122")};
  auto failed = EvaluateAssertions(off_by_a_bit, result);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], "digest == 0x1f00badc0ffee122");
}

TEST(AssertionTest, RejectsMalformedDigestAssertions) {
  auto ordered = ParseAssertion("digest >= 0x1");
  ASSERT_FALSE(ordered.ok());
  EXPECT_NE(ordered.status().message().find("== and !="), std::string::npos);
  auto decimal = ParseAssertion("digest == 123");
  ASSERT_FALSE(decimal.ok());
  EXPECT_NE(decimal.status().message().find("0x-prefixed"),
            std::string::npos);
  EXPECT_FALSE(ParseAssertion("digest == 0x").ok());
  EXPECT_FALSE(ParseAssertion("flight_digest == 0xg1").ok());
  auto too_long = ParseAssertion("digest == 0x12345678123456789");
  ASSERT_FALSE(too_long.ok());
  EXPECT_NE(too_long.status().message().find("16 hex"), std::string::npos);
}

TEST(AssertionTest, RecoveryBookkeepingResolvesThroughVirtualNames) {
  WorldResult result;
  result.completed = true;
  result.recovery.crashes = 2;
  result.recovery.restores = 1;
  result.recovery.replays_from_boot = 1;
  result.recovery.checkpoints_saved = 5;
  result.recovery.fixed_point_ok = true;
  result.recovery.gave_up = false;

  std::vector<AssertionSpec> assertions = {
      *ParseAssertion("recovery.crashes == 2"),
      *ParseAssertion("recovery.restores >= 1"),
      *ParseAssertion("recovery.replays_from_boot == 1"),
      *ParseAssertion("recovery.checkpoints_saved >= 5"),
      *ParseAssertion("recovery.fixed_point_ok == 1"),
      *ParseAssertion("recovery.gave_up == 0"),
  };
  EXPECT_TRUE(EvaluateAssertions(assertions, result).empty());

  // The virtual names never leak into counters/metrics — they resolve even
  // though the maps are empty — and a gave-up world flips two of them.
  result.recovery.gave_up = true;
  result.recovery.fixed_point_ok = false;
  auto failed = EvaluateAssertions(assertions, result);
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0], "recovery.fixed_point_ok == 1");
  EXPECT_EQ(failed[1], "recovery.gave_up == 0");
}

TEST(AssertionTest, EmptyListGetsImplicitCompletedContract) {
  WorldResult incomplete;
  incomplete.completed = false;
  auto failed = EvaluateAssertions({}, incomplete);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], "completed == 1");

  WorldResult complete;
  complete.completed = true;
  EXPECT_TRUE(EvaluateAssertions({}, complete).empty());
}

// --- Stage-latency SLO sugar: "latency.<stage>.p<N>" ---

TEST(AssertionTest, LatencyStageGrammarParsesAndCanonicalizes) {
  auto parsed = ParseAssertion("latency.plan.p99 <= 250");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->metric, "latency.plan.p99");
  EXPECT_EQ(parsed->ToExpr(), "latency.plan.p99 <= 250");
  // Multi-segment stage names keep everything before the percentile.
  auto nested = ParseAssertion("latency.fly.cohort.p50 <= 1");
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->metric, "latency.fly.cohort.p50");
  // Percentile bounds are inclusive at both ends.
  EXPECT_TRUE(ParseAssertion("latency.plan.p1 <= 1").ok());
  EXPECT_TRUE(ParseAssertion("latency.plan.p100 <= 1").ok());
}

TEST(AssertionTest, RejectsMalformedLatencyMetrics) {
  // The latency.* namespace is validated at parse time: a malformed
  // percentile suffix is a parse error, never a vacuous "[missing]".
  const char* bad[] = {
      "latency.plan.p0 <= 1",    // Percentile below 1.
      "latency.plan.p101 <= 1",  // Percentile above 100.
      "latency.plan.p9x <= 1",   // Non-digit in the suffix.
      "latency.plan.p <= 1",     // Empty suffix.
      "latency.plan <= 1",       // No percentile at all.
      "latency..p99 <= 1",       // Empty stage name.
  };
  for (const char* expr : bad) {
    auto parsed = ParseAssertion(expr);
    EXPECT_FALSE(parsed.ok()) << expr;
    if (!parsed.ok()) {
      EXPECT_NE(parsed.status().message().find("latency.<stage>.p<N>"),
                std::string::npos)
          << expr << ": " << parsed.status().message();
    }
  }
}

TEST(AssertionTest, LatencyStageResolvesMergedHistogramsInMilliseconds) {
  WorldResult result;
  result.completed = true;
  Histogram& hist = result.metrics.histograms["latency.plan_us"];
  for (int64_t us : {40000, 50000, 250000}) {
    hist.Record(us);
  }
  // The evaluated value is the conservative bucket upper bound, in
  // milliseconds: <= holds exactly at the percentile, strict < trips.
  const double p99_ms = static_cast<double>(hist.Percentile(0.99)) / 1000.0;
  char at_bound[64];
  std::snprintf(at_bound, sizeof(at_bound), "latency.plan.p99 <= %.9f",
                p99_ms);
  char below_bound[64];
  std::snprintf(below_bound, sizeof(below_bound), "latency.plan.p99 < %.9f",
                p99_ms);
  std::vector<AssertionSpec> assertions = {*ParseAssertion(at_bound)};
  EXPECT_TRUE(EvaluateAssertions(assertions, result).empty());
  std::vector<AssertionSpec> strict = {*ParseAssertion(below_bound)};
  EXPECT_EQ(EvaluateAssertions(strict, result).size(), 1u);

  // A bare "latency.<stage>" histogram (already in µs) is the fallback
  // spelling for the same stage grammar.
  WorldResult bare;
  bare.completed = true;
  bare.metrics.histograms["latency.fly"].Record(900);
  std::vector<AssertionSpec> fallback = {
      *ParseAssertion("latency.fly.p50 <= 1.1")};
  EXPECT_TRUE(EvaluateAssertions(fallback, bare).empty());
}

TEST(AssertionTest, LatencyStageWithoutSamplesReportsMissing) {
  WorldResult result;
  result.completed = true;
  // Absent histogram.
  std::vector<AssertionSpec> absent = {
      *ParseAssertion("latency.bill.p99 <= 100")};
  auto failed = EvaluateAssertions(absent, result);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], "latency.bill.p99 <= 100 [missing]");
  // Present but empty histogram: nothing to hold an SLO against.
  result.metrics.histograms["latency.bill_us"];
  failed = EvaluateAssertions(absent, result);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], "latency.bill.p99 <= 100 [missing]");
}

// --- Manifest loading: the good path ---

constexpr char kFullManifest[] = R"(
<campaign name="chaos" seed="7">
  <scenario name="link" repeat="3" tenants_min="2" tenants_max="4"
            dwell_s="5" spread_m="90" annealing="120" profile="rf">
    <net_fault kind="outage" dir="forward" start_s="20" dur_s="6"
               jitter_s="8"/>
    <net_fault kind="burst_loss" start_s="40" dur_s="20" p0="0.35"/>
    <net_fault kind="latency" dir="reverse" start_s="15" dur_s="30"
               p0="2" d0_ms="80"/>
    <assert expr="completed == 1"/>
  </scenario>
  <scenario name="sensors" tenants="2" expect_fail="true">
    <sensor_fault kind="gps_jump" start_s="15" dur_s="10" p0="80" p1="60"/>
    <sensor_fault kind="noise_inflation" channel="imu" start_s="10"
                  dur_s="50" p0="0.05"/>
    <crash_loop count="3" start_s="8" period_s="6"/>
    <assert expr="waypoints_visited >= 100"/>
  </scenario>
  <scenario name="memory" tenants_min="4" tenants_max="5"
            memory_mb="0" tolerate_rejection="true">
    <assert expr="tenants_rejected >= 1"/>
  </scenario>
  <scenario name="recovery" tenants="1">
    <crash at_s="9,22" checkpoint_s="4" jitter_s="5"/>
    <assert expr="completed == 1"/>
    <assert expr="recovery.crashes >= 1"/>
    <assert expr="digest == 0xc0ffee"/>
  </scenario>
</campaign>
)";

TEST(ManifestTest, ParsesFullFeaturedXmlManifest) {
  auto campaign = ParseCampaignManifest(kFullManifest);
  ASSERT_TRUE(campaign.ok()) << campaign.status().message();
  EXPECT_EQ(campaign->name, "chaos");
  EXPECT_EQ(campaign->seed, 7u);
  ASSERT_EQ(campaign->templates.size(), 4u);

  const ScenarioTemplate& link = campaign->templates[0];
  EXPECT_EQ(link.repeat, 3);
  EXPECT_EQ(link.tenants_min, 2);
  EXPECT_EQ(link.tenants_max, 4);
  EXPECT_EQ(link.profile, LinkProfile::kRfRemote);
  ASSERT_EQ(link.net_windows.size(), 3u);
  EXPECT_DOUBLE_EQ(link.net_windows[0].start_jitter_s, 8.0);
  EXPECT_EQ(link.net_windows[1].window.scope, kFaultScopeAll);
  EXPECT_EQ(link.instance_count(), 9);  // 3 repeats x tenants {2,3,4}.

  const ScenarioTemplate& sensors = campaign->templates[1];
  EXPECT_TRUE(sensors.expect_fail);
  EXPECT_TRUE(sensors.crash_loop.enabled());
  EXPECT_EQ(sensors.crash_loop.count, 3);
  ASSERT_EQ(sensors.sensor_windows.size(), 2u);
  // gps_jump's channel is pinned; the manifest may omit it.
  EXPECT_EQ(sensors.sensor_windows[0].window.scope,
            static_cast<int>(SensorChannel::kGps));
  ASSERT_EQ(sensors.assertions.size(), 1u);
  EXPECT_EQ(sensors.assertions[0].ToExpr(), "waypoints_visited >= 100");

  EXPECT_TRUE(campaign->templates[2].tolerate_rejection);

  const ScenarioTemplate& recovery = campaign->templates[3];
  ASSERT_TRUE(recovery.crash.enabled());
  ASSERT_EQ(recovery.crash.at_s.size(), 2u);
  EXPECT_DOUBLE_EQ(recovery.crash.at_s[0], 9.0);
  EXPECT_DOUBLE_EQ(recovery.crash.at_s[1], 22.0);
  EXPECT_DOUBLE_EQ(recovery.crash.checkpoint_s, 4.0);
  EXPECT_TRUE(recovery.crash.phase_checkpoints);  // Default stays on.
  EXPECT_DOUBLE_EQ(recovery.crash.jitter_s, 5.0);
  EXPECT_EQ(recovery.crash.max_restores, 3);
  ASSERT_EQ(recovery.assertions.size(), 3u);
  EXPECT_TRUE(recovery.assertions[2].is_digest);
  EXPECT_EQ(recovery.assertions[2].ToExpr(),
            "digest == 0x0000000000c0ffee");

  EXPECT_EQ(campaign->instance_count(), 9 + 1 + 2 + 1);
}

// --- Manifest loading: every error path is a descriptive Status ---

void ExpectManifestError(const std::string& text, const char* needle) {
  auto campaign = ParseCampaignManifest(text);
  ASSERT_FALSE(campaign.ok()) << "accepted: " << text;
  EXPECT_NE(campaign.status().message().find(needle), std::string::npos)
      << "error was: " << campaign.status().message();
}

TEST(ManifestTest, RejectsMalformedDocuments) {
  ExpectManifestError("", "empty");
  ExpectManifestError("   \n\t ", "empty");
  EXPECT_FALSE(ParseCampaignManifest("<campaign><scenario></campaign>").ok());
  EXPECT_FALSE(ParseCampaignManifest("{\"name\": }").ok());
  ExpectManifestError("<fleet/>", "root must be <campaign>");
  ExpectManifestError("[1, 2]", "expected '<'");
}

TEST(ManifestTest, RejectsUnknownConstructs) {
  ExpectManifestError("<campaign><mission/></campaign>",
                      "unknown element <mission>");
  ExpectManifestError(
      "<campaign><scenario name=\"x\" color=\"red\"/></campaign>",
      "unknown attribute \"color\"");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><warp/></scenario></campaign>",
      "unknown element <warp>");
  ExpectManifestError("<campaign><scenario/></campaign>",
                      "missing name attribute");
  ExpectManifestError("<campaign><scenario name=\"x\">text</scenario>"
                      "</campaign>",
                      "unexpected text content");
}

TEST(ManifestTest, RejectsBadFaultWindows) {
  // Misspelled kind.
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<net_fault kind=\"outtage\" start_s=\"1\" dur_s=\"1\"/>"
      "</scenario></campaign>",
      "outtage");
  // Misspelled scope.
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<sensor_fault kind=\"dropout\" channel=\"sonar\" start_s=\"1\" "
      "dur_s=\"1\"/></scenario></campaign>",
      "sonar");
  // Pinned-channel conflict: a gps_jump is never an imu fault.
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<sensor_fault kind=\"gps_jump\" channel=\"imu\" start_s=\"1\" "
      "dur_s=\"1\" p0=\"10\"/></scenario></campaign>",
      "gps");
  // Negative start / inverted window / negative jitter.
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<net_fault kind=\"outage\" start_s=\"-1\" dur_s=\"1\"/>"
      "</scenario></campaign>",
      "negative");
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<net_fault kind=\"outage\" start_s=\"5\" dur_s=\"-2\"/>"
      "</scenario></campaign>",
      "duration");
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<net_fault kind=\"outage\" start_s=\"5\" dur_s=\"2\" "
      "jitter_s=\"-1\"/></scenario></campaign>",
      "jitter");
  // Kind-specific parameter range (burst-loss probability).
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<net_fault kind=\"burst_loss\" start_s=\"1\" dur_s=\"1\" "
      "p0=\"1.5\"/></scenario></campaign>",
      "probability");
  // Times past the manifest bound would overflow SimTime.
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<net_fault kind=\"outage\" start_s=\"1e30\" dur_s=\"1\"/>"
      "</scenario></campaign>",
      "start_s: 1e30 out of range");
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<net_fault kind=\"outage\" start_s=\"1\" dur_s=\"1e12\"/>"
      "</scenario></campaign>",
      "dur_s: 1e12 out of range");
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<net_fault kind=\"latency\" start_s=\"1\" dur_s=\"1\" p0=\"2\" "
      "d0_ms=\"1e30\"/></scenario></campaign>",
      "d0_ms: 1e30 out of range");
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<sensor_fault kind=\"dropout\" channel=\"gps\" start_s=\"1\" "
      "dur_s=\"1\" jitter_s=\"1e12\"/></scenario></campaign>",
      "jitter_s: 1e12 out of range");
}

TEST(ManifestTest, RejectsBadScalarsAndConflicts) {
  ExpectManifestError(
      "<campaign><scenario name=\"x\" repeat=\"2.5\"/></campaign>",
      "not an integer");
  ExpectManifestError(
      "<campaign><scenario name=\"x\" repeat=\"0\"/></campaign>",
      "out of range");
  ExpectManifestError(
      "<campaign><scenario name=\"x\" expect_fail=\"yes\"/></campaign>",
      "not a boolean");
  ExpectManifestError(
      "<campaign><scenario name=\"x\" tenants=\"2\" tenants_min=\"2\"/>"
      "</campaign>",
      "not both");
  ExpectManifestError(
      "<campaign><scenario name=\"x\" tenants_min=\"3\" tenants_max=\"2\"/>"
      "</campaign>",
      "tenants_max < tenants_min");
  ExpectManifestError("<campaign seed=\"-4\"><scenario name=\"x\"/>"
                      "</campaign>",
                      "seed");
  ExpectManifestError(
      "<campaign><scenario name=\"x\" dwell_s=\"oops\"/></campaign>",
      "dwell_s");
  ExpectManifestError("<campaign seed=\"1e30\"><scenario name=\"x\"/>"
                      "</campaign>",
                      "seed: must be a non-negative integer below 2^64");
  ExpectManifestError(
      "<campaign><scenario name=\"x\" dwell_s=\"1e12\"/></campaign>",
      "dwell_s: 1e12 out of range");
}

// Every scenario seed derives from the campaign seed, so it must survive
// parse and dump exactly over the whole uint64_t range.
TEST(ManifestTest, CampaignSeedIsAnExactUnsigned64BitInteger) {
  for (uint64_t seed : {uint64_t{0}, (uint64_t{1} << 53) + 1,
                        uint64_t{123456789012345678},
                        std::numeric_limits<uint64_t>::max()}) {
    const std::string digits = std::to_string(seed);
    auto campaign = ParseCampaignManifest(
        "<campaign seed=\"" + digits + "\"><scenario name=\"x\"/></campaign>");
    ASSERT_TRUE(campaign.ok()) << digits << ": "
                               << campaign.status().message();
    EXPECT_EQ(campaign->seed, seed);
    const std::string dumped = DumpCampaignManifest(*campaign);
    EXPECT_NE(dumped.find("seed=\"" + digits + "\""), std::string::npos)
        << dumped;
    auto reparsed = ParseCampaignManifest(dumped);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
    EXPECT_EQ(reparsed->seed, seed);
  }
  for (const std::string bad : {"", "-1", "1.5", "1e3", "+7", " 7", "0x10",
                                "18446744073709551616"}) {
    ExpectManifestError(
        "<campaign seed=\"" + bad + "\"><scenario name=\"x\"/></campaign>",
        "seed: must be a non-negative integer below 2^64");
  }
}

TEST(ManifestTest, RejectsBadCrashLoopAndAssertions) {
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash_loop/></scenario></campaign>",
      "missing count");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash_loop count=\"2\" "
      "period_s=\"0\"/></scenario></campaign>",
      "period_s");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash_loop count=\"1\"/>"
      "<crash_loop count=\"1\"/></scenario></campaign>",
      "more than one");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash_loop count=\"2\" "
      "start_s=\"1e30\"/></scenario></campaign>",
      "start_s: 1e30 out of range");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash_loop count=\"2\" "
      "period_s=\"1e12\"/></scenario></campaign>",
      "period_s: 1e12 out of range");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash_loop count=\"1000000\" "
      "period_s=\"10\"/></scenario></campaign>",
      "the last crash");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><assert/></scenario></campaign>",
      "missing expr");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><assert expr=\"completed ~ 1\"/>"
      "</scenario></campaign>",
      "unknown operator");
}

TEST(ManifestTest, RejectsBadCrashElements) {
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash/></scenario></campaign>",
      "missing at_s");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash at_s=\"oops\"/>"
      "</scenario></campaign>",
      "at_s");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash at_s=\"22,9\"/>"
      "</scenario></campaign>",
      "ascending");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash at_s=\"0\"/>"
      "</scenario></campaign>",
      "positive");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash at_s=\"5\" "
      "checkpoint_s=\"-1\"/></scenario></campaign>",
      "checkpoint_s");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash at_s=\"5\" "
      "jitter_s=\"-1\"/></scenario></campaign>",
      "jitter");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash at_s=\"5\" "
      "max_restores=\"-1\"/></scenario></campaign>",
      "out of range");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash at_s=\"5,1e30\"/>"
      "</scenario></campaign>",
      "at_s: 1e30 out of range");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash at_s=\"5\" "
      "checkpoint_s=\"1e30\"/></scenario></campaign>",
      "checkpoint_s: 1e30 out of range");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash at_s=\"5\" "
      "jitter_s=\"1e12\"/></scenario></campaign>",
      "jitter_s: 1e12 out of range");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash at_s=\"5\"/>"
      "<crash at_s=\"9\"/></scenario></campaign>",
      "more than one <crash>");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><crash at_s=\"5\" "
      "phase_checkpoints=\"maybe\"/></scenario></campaign>",
      "not a boolean");
  ExpectManifestError(
      "<campaign><scenario name=\"x\"><assert expr=\"digest == 99\"/>"
      "</scenario></campaign>",
      "0x-prefixed");
}

// --- The round-trip contract: dump o parse is idempotent, byte-for-byte ---

TEST(ManifestTest, DumpParseRoundTripIsByteStable) {
  auto campaign = ParseCampaignManifest(kFullManifest);
  ASSERT_TRUE(campaign.ok());
  std::string canonical = DumpCampaignManifest(*campaign);

  auto reparsed = ParseCampaignManifest(canonical);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(DumpCampaignManifest(*reparsed), canonical);

  // Twice more for good measure: the canonical form is a fixed point.
  auto again = ParseCampaignManifest(DumpCampaignManifest(*reparsed));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(DumpCampaignManifest(*again), canonical);
}

TEST(ManifestTest, DumpOmitsDefaultsAndEnablesMinimalManifests) {
  CampaignSpec campaign;
  ScenarioTemplate tmpl;
  tmpl.name = "plain";
  campaign.templates.push_back(tmpl);
  // Only the campaign wrapper (the dump must re-parse, and the loader
  // requires a <campaign> root) and the scenario name survive; every
  // defaulted attribute is omitted.
  std::string text = DumpCampaignManifest(campaign);
  EXPECT_EQ(text, "<campaign>\n  <scenario name=\"plain\"/>\n</campaign>\n");

  auto parsed = ParseCampaignManifest("<campaign><scenario name=\"plain\"/>"
                                      "</campaign>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->templates[0].dwell_s, tmpl.dwell_s);
  EXPECT_EQ(parsed->templates[0].annealing, tmpl.annealing);
}

// XML 1.0 allows an attribute once per element: a repeated one must not
// silently take the last value.
TEST(ManifestTest, RejectsDuplicateAttributes) {
  ExpectManifestError(
      "<campaign><scenario name=\"x\" repeat=\"2\" repeat=\"7\"/>"
      "</campaign>",
      "duplicate attribute \"repeat\"");
  ExpectManifestError(
      "<campaign><scenario name=\"x\">"
      "<net_fault kind=\"outage\" start_s=\"1\" start_s=\"2\"/>"
      "</scenario></campaign>",
      "duplicate attribute \"start_s\"");
}

// The <net_fault> attribute |attr| of a one-window campaign dump.
std::string WindowAttr(const std::string& dumped, const std::string& attr) {
  auto root = ParseXml(dumped);
  if (!root.ok() || root.value()->children.empty() ||
      root.value()->children[0]->children.empty()) {
    return "<no window>";
  }
  return root.value()->children[0]->children[0]->Attr(attr, "<absent>");
}

// Fault-window times are SimTime nanoseconds: a decimal with at most
// nanosecond resolution must land on its exact nanosecond and dump back as
// the value written, not drift by one nanosecond per round trip.
TEST(ManifestTest, FaultWindowTimesRoundTripToTheNanosecond) {
  auto window = [](const std::string& start_s, const std::string& dur_s,
                   const std::string& d0_ms) {
    return "<campaign><scenario name=\"x\"><net_fault kind=\"latency\" "
           "start_s=\"" + start_s + "\" dur_s=\"" + dur_s + "\" p0=\"1\" "
           "d0_ms=\"" + d0_ms + "\"/></scenario></campaign>";
  };
  auto campaign = ParseCampaignManifest(window("544.223", "6", "80.9"));
  ASSERT_TRUE(campaign.ok()) << campaign.status().message();
  const FaultWindowSpec& w = campaign->templates[0].net_windows[0].window;
  EXPECT_EQ(w.start, int64_t{544223000000});
  EXPECT_EQ(w.end - w.start, Seconds(6));
  EXPECT_EQ(w.d0, int64_t{80900000});
  const std::string dumped = DumpCampaignManifest(*campaign);
  EXPECT_EQ(WindowAttr(dumped, "start_s"), "544.223");
  EXPECT_EQ(WindowAttr(dumped, "dur_s"), "6");
  EXPECT_EQ(WindowAttr(dumped, "d0_ms"), "80.9");

  // A seeded sweep: seconds in [0, 1e6] with 0-9 fractional digits, and
  // milliseconds in [0, 1e9] with 0-6.
  Rng rng(0x6e73);
  auto decimal = [&rng](uint64_t whole_max, int max_digits, int64_t* ns,
                        int64_t ns_per_unit) {
    const uint64_t whole = rng.NextU64Below(whole_max + 1);
    const int digits =
        whole == whole_max ? 0 : static_cast<int>(rng.NextU64Below(max_digits + 1));
    uint64_t scale = 1;
    for (int d = 0; d < digits; ++d) {
      scale *= 10;
    }
    const uint64_t fraction = rng.NextU64Below(scale);
    std::string text = std::to_string(whole);
    if (digits > 0) {
      std::string tail = std::to_string(fraction);
      text += "." + std::string(static_cast<size_t>(digits) - tail.size(), '0') +
              tail;
    }
    *ns = static_cast<int64_t>(whole) * ns_per_unit +
          static_cast<int64_t>(fraction) * (ns_per_unit / static_cast<int64_t>(scale));
    return text;
  };
  for (int i = 0; i < 2000; ++i) {
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
    int64_t d0_ns = 0;
    const std::string start_s = decimal(1000000, 9, &start_ns, 1000000000);
    const std::string dur_s = decimal(1000000, 9, &dur_ns, 1000000000);
    const std::string d0_ms = decimal(1000000000, 6, &d0_ns, 1000000);
    SCOPED_TRACE(start_s + " " + dur_s + " " + d0_ms);
    auto parsed = ParseCampaignManifest(window(start_s, dur_s, d0_ms));
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const FaultWindowSpec& got = parsed->templates[0].net_windows[0].window;
    EXPECT_EQ(got.start, start_ns);
    EXPECT_EQ(got.end - got.start, dur_ns);
    EXPECT_EQ(got.d0, d0_ns);
    const std::string dumped = DumpCampaignManifest(*parsed);
    for (const auto& [attr, written] :
         {std::pair<std::string, std::string>{"start_s", start_s},
          {"dur_s", dur_s},
          {"d0_ms", d0_ms}}) {
      EXPECT_EQ(std::strtod(WindowAttr(dumped, attr).c_str(), nullptr),
                std::strtod(written.c_str(), nullptr))
          << attr << " dumped as " << WindowAttr(dumped, attr);
    }
    auto again = ParseCampaignManifest(dumped);
    ASSERT_TRUE(again.ok()) << again.status().message();
    EXPECT_EQ(DumpCampaignManifest(*again), dumped);
  }
}

// --- Generator expansion ---

CampaignSpec TwoTemplateCampaign() {
  CampaignSpec campaign;
  campaign.seed = 99;
  ScenarioTemplate a;
  a.name = "alpha";
  a.repeat = 3;
  a.tenants_min = 1;
  a.tenants_max = 2;
  JitteredWindow w;
  w.window.kind = static_cast<int>(FaultKind::kOutage);
  w.window.scope = static_cast<int>(LinkDirection::kForward);
  w.window.start = SecondsF(20);
  w.window.end = SecondsF(26);
  w.start_jitter_s = 8;
  a.net_windows.push_back(w);
  campaign.templates.push_back(a);
  ScenarioTemplate b;
  b.name = "beta";
  b.repeat = 2;
  campaign.templates.push_back(b);
  return campaign;
}

TEST(GeneratorTest, ExpandsTemplatesInStableOrderWithUniqueSeeds) {
  auto scenarios = ExpandScenarios(TwoTemplateCampaign());
  ASSERT_TRUE(scenarios.ok());
  ASSERT_EQ(scenarios->size(), 3u * 2u + 2u);
  EXPECT_EQ((*scenarios)[0].name, "alpha/t1#0");
  EXPECT_EQ((*scenarios)[2].name, "alpha/t1#2");
  EXPECT_EQ((*scenarios)[3].name, "alpha/t2#0");
  EXPECT_EQ((*scenarios)[6].name, "beta/t2#0");
  EXPECT_EQ((*scenarios)[6].family, "beta");
  EXPECT_EQ((*scenarios)[3].world.tenants, 2);

  for (size_t i = 0; i < scenarios->size(); ++i) {
    EXPECT_NE((*scenarios)[i].seed, 0u);
    for (size_t j = i + 1; j < scenarios->size(); ++j) {
      EXPECT_NE((*scenarios)[i].seed, (*scenarios)[j].seed)
          << (*scenarios)[i].name << " vs " << (*scenarios)[j].name;
    }
  }
}

TEST(GeneratorTest, ExpansionIsDeterministic) {
  auto first = ExpandScenarios(TwoTemplateCampaign());
  auto second = ExpandScenarios(TwoTemplateCampaign());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].seed, (*second)[i].seed);
    ASSERT_EQ((*first)[i].net_faults.schedule().windows().size(),
              (*second)[i].net_faults.schedule().windows().size());
    for (size_t w = 0; w < (*first)[i].net_faults.schedule().windows().size();
         ++w) {
      EXPECT_EQ((*first)[i].net_faults.schedule().windows()[w].start,
                (*second)[i].net_faults.schedule().windows()[w].start);
    }
  }
}

TEST(GeneratorTest, JitterShiftsWindowsPerInstanceButPreservesDuration) {
  auto scenarios = ExpandScenarios(TwoTemplateCampaign());
  ASSERT_TRUE(scenarios.ok());
  const SimDuration expected = SecondsF(6);
  bool any_shifted = false;
  for (size_t i = 0; i < 6; ++i) {  // The alpha instances.
    const auto& windows = (*scenarios)[i].net_faults.schedule().windows();
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_GE(windows[0].start, 0);
    EXPECT_EQ(windows[0].end - windows[0].start, expected);
    if (windows[0].start != SecondsF(20)) {
      any_shifted = true;
    }
  }
  EXPECT_TRUE(any_shifted);  // Jitter actually engages across the sweep.
}

TEST(GeneratorTest, RejectsStructurallyInvalidTemplates) {
  CampaignSpec campaign;
  ScenarioTemplate bad;
  bad.name = "bad";
  bad.repeat = 0;
  campaign.templates.push_back(bad);
  EXPECT_FALSE(ExpandScenarios(campaign).ok());

  campaign.templates[0].repeat = 1;
  campaign.templates[0].tenants_min = 3;
  campaign.templates[0].tenants_max = 2;
  EXPECT_FALSE(ExpandScenarios(campaign).ok());

  campaign.templates[0].name = "";
  campaign.templates[0].tenants_max = 3;
  EXPECT_FALSE(ExpandScenarios(campaign).ok());
}

TEST(GeneratorTest, CrashFamilyExpandsIntoWorldConfigWithSharedShift) {
  CampaignSpec campaign;
  campaign.seed = 7;
  ScenarioTemplate tmpl;
  tmpl.name = "crashrec";
  tmpl.repeat = 8;
  tmpl.crash.at_s = {9, 22};
  tmpl.crash.checkpoint_s = 4;
  tmpl.crash.jitter_s = 5;
  tmpl.crash.max_restores = 2;
  campaign.templates.push_back(tmpl);

  auto scenarios = ExpandScenarios(campaign);
  ASSERT_TRUE(scenarios.ok()) << scenarios.status().message();
  ASSERT_EQ(scenarios->size(), 8u);
  bool any_shifted = false;
  for (const ScenarioSpec& spec : *scenarios) {
    ASSERT_EQ(spec.world.crash_at_s.size(), 2u);
    EXPECT_GE(spec.world.crash_at_s[0], 0.0);
    // One shift for the whole schedule: the inter-crash gap is invariant.
    EXPECT_DOUBLE_EQ(spec.world.crash_at_s[1] - spec.world.crash_at_s[0],
                     13.0);
    EXPECT_DOUBLE_EQ(spec.world.checkpoint.period_s, 4.0);
    EXPECT_TRUE(spec.world.checkpoint.at_phase_boundaries);
    EXPECT_EQ(spec.world.max_restores, 2);
    if (spec.world.crash_at_s[0] != 9.0) {
      any_shifted = true;
    }
  }
  EXPECT_TRUE(any_shifted);  // Jitter actually engages across the sweep.

  // Same campaign, same expansion: crash schedules replay exactly.
  auto again = ExpandScenarios(campaign);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < scenarios->size(); ++i) {
    EXPECT_EQ((*scenarios)[i].world.crash_at_s,
              (*again)[i].world.crash_at_s);
  }
}

// One manifest line can ask for 10^18 scenarios: the count must not
// overflow, and expansion must refuse past the cap before building any.
TEST(GeneratorTest, RejectsCampaignsPastTheScenarioCap) {
  auto huge = ParseCampaignManifest(
      "<campaign><scenario name=\"huge\" repeat=\"1000000000\" "
      "tenants_min=\"1\" tenants_max=\"1000000000\"/></campaign>");
  ASSERT_TRUE(huge.ok()) << huge.status().message();
  ASSERT_EQ(huge->instance_count(), int64_t{1000000000} * 1000000000);

  // The cap is on the running total, and names the template that crosses
  // it. (Checked first: without a cap this builds 10^5 scenarios, not 10^18.)
  CampaignSpec two;
  ScenarioTemplate small;
  small.name = "small";
  small.repeat = 3;
  two.templates.push_back(small);
  ScenarioTemplate crossing = small;
  crossing.name = "crossing";
  crossing.repeat = static_cast<int>(kMaxCampaignScenarios) - 2;
  two.templates.push_back(crossing);
  auto scenarios = ExpandScenarios(two);
  ASSERT_FALSE(scenarios.ok());
  EXPECT_NE(scenarios.status().message().find("scenario \"crossing\""),
            std::string::npos)
      << scenarios.status().message();
  two.templates[1].repeat -= 1;  // Exactly at the cap: allowed.
  EXPECT_EQ(two.instance_count(), kMaxCampaignScenarios);

  scenarios = ExpandScenarios(*huge);
  ASSERT_FALSE(scenarios.ok());
  EXPECT_NE(scenarios.status().message().find("scenario \"huge\""),
            std::string::npos)
      << scenarios.status().message();
}

TEST(GeneratorTest, RejectsInvalidCrashPlans) {
  CampaignSpec campaign;
  ScenarioTemplate tmpl;
  tmpl.name = "bad";
  tmpl.crash.at_s = {5, 5};  // Not strictly ascending.
  campaign.templates.push_back(tmpl);
  EXPECT_FALSE(ExpandScenarios(campaign).ok());

  campaign.templates[0].crash.at_s = {5, 9};
  campaign.templates[0].crash.checkpoint_s = -1;
  EXPECT_FALSE(ExpandScenarios(campaign).ok());

  campaign.templates[0].crash.checkpoint_s = 0;
  campaign.templates[0].crash.max_restores = -1;
  EXPECT_FALSE(ExpandScenarios(campaign).ok());

  campaign.templates[0].crash.max_restores = 3;
  EXPECT_TRUE(ExpandScenarios(campaign).ok());
}

TEST(GeneratorTest, ScenarioWorldConfigPinsOnlyNonEmptyPlans) {
  auto scenarios = ExpandScenarios(TwoTemplateCampaign());
  ASSERT_TRUE(scenarios.ok());
  FleetWorldConfig with_faults = ScenarioWorldConfig((*scenarios)[0]);
  EXPECT_EQ(with_faults.net_faults, &(*scenarios)[0].net_faults);
  EXPECT_EQ(with_faults.sensor_faults, nullptr);
  FleetWorldConfig plain = ScenarioWorldConfig((*scenarios)[6]);
  EXPECT_EQ(plain.net_faults, nullptr);
  EXPECT_EQ(plain.sensor_faults, nullptr);
}

// --- Link profile vocabulary (the scenario DSL's profile attribute) ---

TEST(LinkProfileTest, NamesRoundTrip) {
  for (LinkProfile profile : {LinkProfile::kCellularLte,
                              LinkProfile::kRfRemote,
                              LinkProfile::kWired}) {
    auto back = LinkProfileFromName(LinkProfileName(profile));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, profile);
  }
  EXPECT_FALSE(LinkProfileFromName("carrier-pigeon").ok());
}

}  // namespace
}  // namespace androne
