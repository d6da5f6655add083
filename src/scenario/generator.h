// Scenario generator: expands parameterized templates into concrete
// ScenarioSpecs. A template sweeps three axes — tenant-count range, repeat
// count (seed sweep), and per-window start-time jitter — so a six-template
// manifest fans out into thousands of distinct worlds. Expansion is fully
// deterministic: every instance seed chains from (campaign seed, template
// index, instance ordinal) via SplitMix64, and the jitter draws come from
// the instance seed, so the same CampaignSpec always expands to the same
// scenario list, independent of host, thread count, or wall clock.
#ifndef SRC_SCENARIO_GENERATOR_H_
#define SRC_SCENARIO_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/scenario/scenario.h"

namespace androne {

// One manifest fault window plus its sweep decoration: |start_jitter_s|
// shifts the window start uniformly by ±jitter per instance (clamped at 0),
// so repeated instances probe the fault landing at different mission
// phases instead of replaying one alignment.
struct JitteredWindow {
  FaultWindowSpec window;
  double start_jitter_s = 0;
};

// The crash fault family (DESIGN.md §13): the world process dies at each
// listed sim-time mid-flight, reloads its latest checkpoint (or replays
// from boot when none exists yet), and resumes — bit-identical to the
// uninterrupted run. |jitter_s| shifts the whole schedule per instance
// (gaps preserved, clamped at t=0) so repeated instances crash at
// different mission phases; |max_restores| bounds the restore budget, so
// a template with more landing crashes than budget is a seeded give-up
// (pair it with expect_fail).
struct CrashPlanConfig {
  std::vector<double> at_s;     // Crash sim-times; empty disables the axis.
  double checkpoint_s = 0;      // Periodic checkpoint cadence; 0 = off.
  bool phase_checkpoints = true;  // Checkpoint at mission phase entry.
  double jitter_s = 0;
  int max_restores = 3;

  bool enabled() const { return !at_s.empty(); }
};

// Structural validation shared by the manifest loader and the expander:
// crash times must be positive and strictly ascending, the cadence and
// jitter non-negative, the restore budget >= 0.
Status ValidateCrashPlan(const CrashPlanConfig& crash,
                         const std::string& where);

// A parameterized scenario family, straight from one manifest <scenario>
// element. Field defaults are the manifest defaults — the dumper omits
// attributes still at these values.
struct ScenarioTemplate {
  std::string name;
  int repeat = 1;       // Instances per tenant count (the seed sweep).
  int tenants_min = 2;  // Inclusive tenant-count range.
  int tenants_max = 2;
  double dwell_s = 10;
  double spread_m = 120;
  int annealing = 200;
  double memory_mb = 0;  // 0 = board default (Figure 12 budget).
  LinkProfile profile = LinkProfile::kCellularLte;
  bool tolerate_rejection = false;
  bool expect_fail = false;
  CrashLoopConfig crash_loop;
  CrashPlanConfig crash;
  std::vector<JitteredWindow> net_windows;
  std::vector<JitteredWindow> sensor_windows;
  std::vector<AssertionSpec> assertions;

  // Concrete scenarios this template expands to (int64_t: a manifest may
  // ask for 10^9 repeats of 10^9 tenant counts).
  int64_t instance_count() const {
    return int64_t{repeat} * (int64_t{tenants_max} - tenants_min + 1);
  }
};

// A whole campaign: named, seeded, N templates.
struct CampaignSpec {
  std::string name;
  uint64_t seed = 1;
  std::vector<ScenarioTemplate> templates;

  int64_t instance_count() const {
    int64_t total = 0;
    for (const ScenarioTemplate& t : templates) {
      total += t.instance_count();
    }
    return total;
  }
};

// The most scenarios one campaign may expand to: 88x the builtin full
// campaign's 1136, and far below what would exhaust memory.
inline constexpr int64_t kMaxCampaignScenarios = 100000;

// Expands every template into concrete scenarios, in template order then
// tenant-count order then repeat order — the scenario index is therefore a
// stable coordinate, and reruns of the same campaign hit identical worlds.
// Structural template errors (non-positive repeat, inverted tenant range),
// a campaign past kMaxCampaignScenarios (checked before the template that
// crosses it is built) and windows invalidated by their layer
// (pinned-channel conflicts, parameter ranges) surface as descriptive
// Status errors.
StatusOr<std::vector<ScenarioSpec>> ExpandScenarios(
    const CampaignSpec& campaign);

}  // namespace androne

#endif  // SRC_SCENARIO_GENERATOR_H_
