// Scenario vocabulary for the chaos-campaign engine (DESIGN.md §12). A
// ScenarioSpec is one fully-concrete world to run: a FleetWorldConfig
// (mission shape, tenant count, link profile, memory budget, crash-loop
// schedule) plus owned network/sensor fault plans, a private seed, and a
// list of expected-outcome assertions evaluated against the WorldResult.
// Specs come out of the generator (src/scenario/generator.h), which expands
// parameterized templates from a manifest (src/scenario/manifest.h) into
// thousands of concrete scenarios; the CampaignRunner
// (src/scenario/campaign.h) drives them through FleetExecutor and triages
// the failures.
#ifndef SRC_SCENARIO_SCENARIO_H_
#define SRC_SCENARIO_SCENARIO_H_

#include <string>
#include <vector>

#include "src/exec/fleet_executor.h"
#include "src/exec/fleet_world.h"
#include "src/hw/sensor_faults.h"
#include "src/net/fault_injector.h"
#include "src/util/status.h"
#include "src/util/xml_attrs.h"

namespace androne {

// Assertion comparison operators; two-character spellings first so the
// parser never truncates "<=" to "<".
enum class CompareOp { kLe, kGe, kEq, kNe, kLt, kGt };

const char* CompareOpName(CompareOp op);

// One expected-outcome assertion: "<metric> <op> <number>", e.g.
// "completed == 1" or "tenants_rejected >= 1". The metric resolves against
// the WorldResult in this order: the special names ("completed",
// "recovery.crashes", "recovery.restores", "recovery.replays_from_boot",
// "recovery.checkpoints_saved", "recovery.gave_up",
// "recovery.fixed_point_ok", and the replay bookkeeping mirror
// "replay.*"), then result.counters, then the structured metrics
// counters, then gauges. An unresolvable metric fails the assertion with
// a distinct "[missing]" signature instead of passing vacuously.
//
// Latency-SLO assertions: "hist.<name>.p<N> <= 250000" resolves the N-th
// percentile (1 <= N <= 100, conservative upper bucket bound) of the
// named histogram in result.metrics (e.g. "downlink_latency_us"), so
// campaigns can gate on tail latency.
// The percentile suffix is validated at parse time; a histogram absent
// from the result reports "[missing]" like any other metric.
//
// Stage-latency SLO sugar: "latency.<stage>.p99 <= 250" gates the named
// serving-stage latency histogram in MILLISECONDS. The metric resolves
// the histogram "latency.<stage>_us" (then "latency.<stage>") — the
// control plane's per-stage convention (DESIGN.md §16: order, plan,
// admit, fly, bill, session) — and divides the percentile by 1000, so
// SLO bounds read in the unit operators think in while histograms keep
// microsecond resolution. Same parse-time percentile validation and
// "[missing]" behavior as hist.*.
//
// Digest pinning: the metric names "digest" and "flight_digest" switch the
// assertion into exact 64-bit mode — "digest == 0x1f00badc0ffee123" — so a
// manifest can pin a scenario's determinism digest without the round-trip
// through double (which would silently lose the low bits past 2^53). Digest
// assertions accept only == and != and only a 0x-prefixed hex value; the
// canonical spelling always zero-pads to 16 hex digits.
struct AssertionSpec {
  std::string metric;
  CompareOp op = CompareOp::kEq;
  double value = 0;
  // Exact-digest mode (metric "digest" or "flight_digest"): the 64-bit
  // expected value lives here and |value| is unused.
  bool is_digest = false;
  uint64_t digest_value = 0;

  // Canonical spelling: single spaces, FormatNumberCompact number (or
  // 0x%016x for digest assertions). Bucket keys and the manifest dumper
  // both use this form.
  std::string ToExpr() const;
};

// Parses "<metric> <op> <number>" (whitespace-separated, exactly three
// tokens). Descriptive errors on malformed expressions, unknown operators,
// non-numeric bounds, and malformed digest assertions (wrong operator,
// missing 0x prefix, more than 16 hex digits).
StatusOr<AssertionSpec> ParseAssertion(const std::string& expr);

// The one attribute of a manifest's <assert> and a tenant mix's <slo>
// (src/util/xml_attrs.h).
template <class A>
void VisitAttrs(A& a, AssertionSpec& assertion) {
  a.Field(
      "expr", assertion, ParseAssertion,
      [](const AssertionSpec& spec) { return spec.ToExpr(); },
      Presence::kRequired);
}

// One concrete scenario. The fault plans are owned by the spec; build the
// world config with ScenarioWorldConfig(), which pins the config's borrowed
// plan pointers to this spec (so the spec must outlive the run and must not
// be moved while a world holds the config).
struct ScenarioSpec {
  std::string name;    // Instance name: "<family>/t<tenants>#<rep>".
  std::string family;  // Template name — the triage bucketing coarse key.
  uint64_t seed = 1;   // World seed; never 0 (0 means "derive from index").
  bool expect_fail = false;  // Seeded-failure scenarios: failing is passing.

  FleetWorldConfig world;  // Chaos plan pointers left null; see below.
  FaultPlan net_faults;
  SensorFaultPlan sensor_faults;

  std::vector<AssertionSpec> assertions;
};

// The spec's world config with the chaos plan pointers wired to the spec's
// own (owned) plans; empty plans stay disabled (null pointer) so a no-chaos
// scenario runs the exact plain-world code path.
FleetWorldConfig ScenarioWorldConfig(const ScenarioSpec& spec);

// Evaluates the scenario's assertions against a world result and returns
// the canonical expressions of the failures (empty = scenario passed). A
// scenario with no explicit assertions gets the implicit contract
// "completed == 1". Unresolvable metrics report as "<expr> [missing]".
std::vector<std::string> EvaluateAssertions(
    const std::vector<AssertionSpec>& assertions, const WorldResult& result);

}  // namespace androne

#endif  // SRC_SCENARIO_SCENARIO_H_
