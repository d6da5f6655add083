// Chaos campaign sweep: expands the built-in eight-family campaign (or a
// manifest given with --manifest) into concrete scenarios, drives them
// through the campaign runner, and proves the determinism contract — the
// campaign report is byte-identical across a repeat run and across executor
// thread counts {1, 2, 8}. Writes BENCH_campaign.json with --json; the CI
// smoke gate greps it for "unexpected": 0.
//
// Flags:
//   --smoke            small campaign (~74 scenarios) instead of the full
//                      1000+ sweep
//   --threads N        reference thread count (default 1)
//   --manifest PATH    load an XML campaign manifest instead of the
//                      built-in campaign
//   --dump-manifest P  write the campaign's canonical XML manifest to P
//                      ("-" = stdout) and exit
//   --repro NAME       re-run one scenario by instance name with full
//                      tracing and exit (pairs with --trace)
//   --trace PATH       where --repro writes the full trace text
//   --baseline PATH    a prior run's --json report; the sweep diffs triage
//                      buckets against it and fails on newly-appearing
//                      unexpected failure buckets (regressions), while
//                      flagging resolved ones
//   --json PATH        machine-readable results
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/scenario/campaign.h"
#include "src/scenario/generator.h"
#include "src/scenario/manifest.h"
#include "src/util/json.h"
#include "src/util/logging.h"
#include "src/util/time.h"

namespace androne {
namespace {

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

AssertionSpec Expect(const char* metric, CompareOp op, double value) {
  AssertionSpec spec;
  spec.metric = metric;
  spec.op = op;
  spec.value = value;
  return spec;
}

JitteredWindow NetWindow(FaultKind kind, LinkDirection dir, double start_s,
                         double duration_s, double p0, double extra_s,
                         double jitter_s) {
  JitteredWindow jw;
  jw.window.kind = static_cast<int>(kind);
  jw.window.scope = static_cast<int>(dir);
  jw.window.start = SecondsF(start_s);
  jw.window.end = SecondsF(start_s + duration_s);
  jw.window.p0 = p0;
  jw.window.d0 = SecondsF(extra_s);
  jw.start_jitter_s = jitter_s;
  return jw;
}

JitteredWindow SensorWindow(SensorFaultKind kind, SensorChannel channel,
                            double start_s, double duration_s, double p0,
                            double p1, double jitter_s) {
  JitteredWindow jw;
  jw.window.kind = static_cast<int>(kind);
  jw.window.scope = static_cast<int>(channel);
  jw.window.start = SecondsF(start_s);
  jw.window.end = SecondsF(start_s + duration_s);
  jw.window.p0 = p0;
  jw.window.p1 = p1;
  jw.start_jitter_s = jitter_s;
  return jw;
}

// The built-in campaign: eight scenario families covering the chaos axes.
// The smoke variant keeps the same families at ~75 instances; the full
// sweep fans out past 1000. Two families (seeded_failure, crash_giveup)
// are intentional failures — expect_fail scenarios prove the triage path
// buckets and diverges something on every run, so a regression that
// silently stops detecting failures flips the "unexpected" gate.
CampaignSpec BuiltinCampaign(bool smoke) {
  CampaignSpec campaign;
  campaign.name = smoke ? "builtin-smoke" : "builtin-full";
  campaign.seed = 2026;
  auto repeats = [smoke](int full, int small) { return smoke ? small : full; };

  ScenarioTemplate base;  // Campaign worlds trade mission size for fan-out.
  base.dwell_s = 5;
  base.annealing = 120;

  {
    ScenarioTemplate t = base;
    t.name = "baseline";
    t.repeat = repeats(70, 7);
    t.tenants_min = 2;
    t.tenants_max = 3;
    t.assertions = {Expect("completed", CompareOp::kEq, 1),
                    Expect("downlink_frames", CompareOp::kGe, 1)};
    campaign.templates.push_back(t);
  }
  {
    ScenarioTemplate t = base;
    t.name = "link_loss";
    t.repeat = repeats(300, 16);
    t.net_windows = {
        NetWindow(FaultKind::kOutage, LinkDirection::kForward,
                  /*start_s=*/20, /*duration_s=*/6, 0, 0, /*jitter_s=*/8),
        NetWindow(FaultKind::kBurstLoss, LinkDirection::kBoth,
                  /*start_s=*/40, /*duration_s=*/20, /*p0=*/0.35, 0,
                  /*jitter_s=*/10),
        NetWindow(FaultKind::kLatency, LinkDirection::kForward,
                  /*start_s=*/15, /*duration_s=*/30, /*p0=*/2.0,
                  /*extra_s=*/0.08, /*jitter_s=*/6),
    };
    t.assertions = {Expect("completed", CompareOp::kEq, 1)};
    campaign.templates.push_back(t);
  }
  {
    ScenarioTemplate t = base;
    t.name = "sensor_chaos";
    t.repeat = repeats(300, 16);
    t.sensor_windows = {
        // The wide noise window is what guarantees corrupted_reads >= 1 —
        // it overlaps the flight regardless of where the jitter lands. All
        // three faults are in the estimator's gated/blended regime (the
        // safety-chaos acceptance envelope): the mission must complete. The
        // faults that stall a route (GPS jump, battery sag) belong to the
        // seeded_failure family.
        SensorWindow(SensorFaultKind::kNoiseInflation, SensorChannel::kImu,
                     /*start_s=*/10, /*duration_s=*/50, /*p0=*/0.05, 0,
                     /*jitter_s=*/4),
        SensorWindow(SensorFaultKind::kBiasDrift, SensorChannel::kMag,
                     /*start_s=*/20, /*duration_s=*/15, /*p0=*/0.002, 0,
                     /*jitter_s=*/5),
        SensorWindow(SensorFaultKind::kBaroSpike, SensorChannel::kBaro,
                     /*start_s=*/35, /*duration_s=*/10, /*p0=*/12,
                     /*p1=*/0.2, /*jitter_s=*/8),
    };
    t.assertions = {Expect("completed", CompareOp::kEq, 1),
                    Expect("sensor.corrupted_reads", CompareOp::kGe, 1)};
    campaign.templates.push_back(t);
  }
  {
    ScenarioTemplate t = base;
    t.name = "crash_loop";
    t.repeat = repeats(160, 10);
    t.crash_loop.count = 3;
    t.crash_loop.start_s = 8;
    t.crash_loop.period_s = 6;
    t.crash_loop.max_restarts = 5;
    t.assertions = {Expect("completed", CompareOp::kEq, 1),
                    Expect("supervisor.restarts", CompareOp::kGe, 1)};
    campaign.templates.push_back(t);
  }
  {
    ScenarioTemplate t = base;
    t.name = "crash";
    t.repeat = repeats(110, 8);
    // The world dies twice mid-flight and recovers from its latest
    // checkpoint; the jitter sweeps where the crashes land across the
    // mission. Recovery is bit-identical to the uninterrupted run, so the
    // family's contract is full completion plus the recovery bookkeeping
    // (which rides outside counters/metrics — hence the recovery.* names).
    t.crash.at_s = {9, 22};
    t.crash.checkpoint_s = 4;
    t.crash.jitter_s = 5;
    t.assertions = {Expect("completed", CompareOp::kEq, 1),
                    Expect("recovery.crashes", CompareOp::kGe, 1),
                    Expect("recovery.restores", CompareOp::kGe, 1),
                    Expect("recovery.fixed_point_ok", CompareOp::kEq, 1),
                    Expect("recovery.gave_up", CompareOp::kEq, 0)};
    campaign.templates.push_back(t);
  }
  {
    ScenarioTemplate t = base;
    t.name = "crash_giveup";
    t.repeat = repeats(3, 2);
    t.expect_fail = true;
    // More landing crashes than restore budget: the supervisor gives up,
    // the world stays down, and completed == 1 fails — which is this
    // family's point. Like seeded_failure, it proves the give-up path and
    // the triage machinery keep detecting real failures.
    t.crash.at_s = {6, 10, 14, 18};
    t.crash.checkpoint_s = 3;
    t.crash.max_restores = 2;
    t.assertions = {Expect("completed", CompareOp::kEq, 1),
                    Expect("recovery.gave_up", CompareOp::kEq, 0)};
    campaign.templates.push_back(t);
  }
  {
    ScenarioTemplate t = base;
    t.name = "memory_pressure";
    t.repeat = repeats(60, 3);
    t.tenants_min = 4;  // Default board budget admits 3 (paper Figure 12).
    t.tenants_max = 5;
    t.tolerate_rejection = true;
    t.assertions = {Expect("completed", CompareOp::kEq, 1),
                    Expect("tenants_rejected", CompareOp::kGe, 1)};
    campaign.templates.push_back(t);
  }
  {
    ScenarioTemplate t = base;
    t.name = "seeded_failure";
    t.repeat = repeats(3, 2);
    t.expect_fail = true;
    // The jump makes the faulted trace diverge from the nominal twin; the
    // unreachable waypoint bound makes the assertion fail.
    t.sensor_windows = {SensorWindow(SensorFaultKind::kGpsJump,
                                     SensorChannel::kGps, /*start_s=*/15,
                                     /*duration_s=*/10, /*p0=*/80, /*p1=*/60,
                                     /*jitter_s=*/0)};
    t.assertions = {Expect("waypoints_visited", CompareOp::kGe, 100)};
    campaign.templates.push_back(t);
  }
  return campaign;
}

StatusOr<CampaignSpec> LoadManifestFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError(std::string("cannot open manifest file ") + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseCampaignManifest(text.str());
}

struct Pass {
  std::string label;
  int threads = 0;
  double wall_s = 0;
  uint64_t digest = 0;
  bool matches_reference = false;
};

// Triage-bucket diff against a prior run's --json report. A bucket is keyed
// by its canonical assertion expression (or divergence signature), so the
// same failure mode lands in the same bucket across runs — a key present
// now but absent from the baseline is a newly-appearing failure mode.
struct BaselineDiff {
  bool loaded = false;
  std::string error;
  std::string campaign;          // Baseline's campaign name (sanity check).
  std::vector<std::string> new_unexpected;  // Regressions: new + !expected.
  std::vector<std::string> new_expected;    // New but expect_fail families.
  std::vector<std::string> resolved;        // In baseline, gone now.
};

BaselineDiff DiffAgainstBaseline(const char* path,
                                 const CampaignReport& current) {
  BaselineDiff diff;
  std::ifstream in(path);
  if (!in) {
    diff.error = std::string("cannot open baseline report ") + path;
    return diff;
  }
  std::ostringstream text;
  text << in.rdbuf();
  StatusOr<JsonValue> doc = ParseJson(text.str());
  if (!doc.ok()) {
    diff.error = std::string("baseline report ") + path + ": " +
                 doc.status().message();
    return diff;
  }
  const JsonValue* buckets = doc->Find("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    diff.error = std::string("baseline report ") + path +
                 ": no \"buckets\" array (not a campaign_sweep --json file?)";
    return diff;
  }
  diff.loaded = true;
  diff.campaign = doc->GetStringOr("campaign", "");
  std::set<std::string> baseline_keys;
  for (const JsonValue& bucket : buckets->AsArray()) {
    const std::string key = bucket.GetStringOr("key", "");
    if (!key.empty()) {
      baseline_keys.insert(key);
    }
  }
  std::set<std::string> current_keys;
  for (const FailureBucket& bucket : current.buckets) {
    current_keys.insert(bucket.key);
    if (baseline_keys.count(bucket.key) == 0) {
      (bucket.expected ? diff.new_expected : diff.new_unexpected)
          .push_back(bucket.key);
    }
  }
  for (const std::string& key : baseline_keys) {
    if (current_keys.count(key) == 0) {
      diff.resolved.push_back(key);
    }
  }
  return diff;
}

CampaignReport RunPass(const std::string& name,
                       const std::vector<ScenarioSpec>& scenarios,
                       int threads) {
  CampaignOptions options;
  options.name = name;
  options.threads = threads;
  CampaignRunner runner(options);
  return runner.Run(scenarios);
}

int Repro(const std::vector<ScenarioSpec>& scenarios, const char* name,
          const char* trace_path) {
  StatusOr<WorldResult> result = CampaignRunner::Repro(scenarios, name);
  if (!result.ok()) {
    std::printf("repro failed: %s\n", result.status().message().c_str());
    return 1;
  }
  const WorldResult& world = *result;
  std::printf("repro %s\n", world.scenario.c_str());
  std::printf("  seed            %016llx\n",
              static_cast<unsigned long long>(world.seed));
  std::printf("  completed       %s\n", world.completed ? "true" : "false");
  std::printf("  flight digest   %016llx\n",
              static_cast<unsigned long long>(world.digest));
  std::printf("  events run      %llu\n",
              static_cast<unsigned long long>(world.events_run));
  for (const std::string& assertion : world.failed_assertions) {
    std::printf("  failed assert   %s\n", assertion.c_str());
  }
  size_t trace_lines = 0;
  for (char c : world.trace_text) {
    trace_lines += c == '\n';
  }
  std::printf("  trace lines     %zu\n", static_cast<size_t>(trace_lines));
  if (trace_path != nullptr) {
    WriteTextFile(trace_path, world.trace_text);
    std::printf("  trace written   %s\n", trace_path);
  } else {
    std::printf("%s", world.trace_text.c_str());
  }
  return 0;
}

int Run(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const char* manifest_path = FlagArg(argc, argv, "--manifest");
  const char* dump_path = FlagArg(argc, argv, "--dump-manifest");
  const char* repro_name = FlagArg(argc, argv, "--repro");
  const char* trace_path = FlagArg(argc, argv, "--trace");
  const char* baseline_path = FlagArg(argc, argv, "--baseline");
  const char* json_path = JsonPathArg(argc, argv);
  const char* threads_arg = FlagArg(argc, argv, "--threads");
  const int threads = threads_arg != nullptr ? std::atoi(threads_arg) : 1;

  CampaignSpec campaign;
  if (manifest_path != nullptr) {
    StatusOr<CampaignSpec> loaded = LoadManifestFile(manifest_path);
    if (!loaded.ok()) {
      std::printf("manifest error: %s\n", loaded.status().message().c_str());
      return 1;
    }
    campaign = std::move(loaded).value();
  } else {
    campaign = BuiltinCampaign(smoke);
  }

  if (dump_path != nullptr) {
    std::string text = DumpCampaignManifest(campaign);
    if (std::strcmp(dump_path, "-") == 0) {
      std::printf("%s", text.c_str());
    } else {
      WriteTextFile(dump_path, text);
      std::printf("manifest written to %s\n", dump_path);
    }
    return 0;
  }

  StatusOr<std::vector<ScenarioSpec>> expanded = ExpandScenarios(campaign);
  if (!expanded.ok()) {
    std::printf("expansion error: %s\n", expanded.status().message().c_str());
    return 1;
  }
  const std::vector<ScenarioSpec>& scenarios = *expanded;

  // The per-world container/flight logs would swamp the output; the report
  // digests already prove the worlds flew.
  SetMinLogLevel(LogLevel::kWarning);

  if (repro_name != nullptr) {
    return Repro(scenarios, repro_name, trace_path);
  }

  BenchHeader("Campaign sweep",
              "chaos campaign throughput, triage, and report determinism");
  std::printf("  campaign %s: %zu scenarios from %zu templates\n\n",
              campaign.name.c_str(), scenarios.size(),
              campaign.templates.size());

  // The reference pass, a repeat at the same thread count, and two more
  // thread counts: the report text must be byte-identical across all four.
  struct PassPlan {
    const char* label;
    int threads;
  };
  std::vector<PassPlan> plan = {{"reference", threads},
                                {"repeat", threads},
                                {"threads=2", 2},
                                {"threads=8", 8}};
  std::vector<Pass> passes;
  std::string reference_text;
  CampaignReport reference;
  for (const PassPlan& p : plan) {
    CampaignReport report = RunPass(campaign.name, scenarios, p.threads);
    Pass pass;
    pass.label = p.label;
    pass.threads = p.threads;
    pass.wall_s = report.wall_seconds;
    pass.digest = report.Digest();
    if (reference_text.empty()) {
      reference_text = report.ToText();
      reference = report;
      pass.matches_reference = true;
    } else {
      pass.matches_reference = report.ToText() == reference_text;
    }
    passes.push_back(pass);
  }

  bool deterministic = true;
  std::printf("  %-10s %8s %10s %18s  %s\n", "pass", "threads", "wall s",
              "report digest", "match");
  for (const Pass& p : passes) {
    deterministic = deterministic && p.matches_reference;
    std::printf("  %-10s %8d %10.3f   %016llx  %s\n", p.label.c_str(),
                p.threads, p.wall_s,
                static_cast<unsigned long long>(p.digest),
                p.matches_reference ? "ok" : "DIVERGED");
  }
  std::printf("\n  report %s across repeat and thread counts\n",
              deterministic ? "IDENTICAL" : "DIVERGED");
  std::printf("  template reuse: %llu scenario(s) cold-booted a boot family, "
              "%llu cloned from a template\n\n",
              static_cast<unsigned long long>(reference.template_misses),
              static_cast<unsigned long long>(reference.template_hits));
  std::printf("%s", reference.ToText().c_str());

  // Baseline diff: newly-appearing unexpected buckets are regressions the
  // exit code refuses to swallow; resolved buckets are progress worth a
  // line in the log.
  BaselineDiff diff;
  bool baseline_clean = true;
  if (baseline_path != nullptr) {
    diff = DiffAgainstBaseline(baseline_path, reference);
    if (!diff.loaded) {
      std::printf("\n  baseline: %s\n", diff.error.c_str());
      baseline_clean = false;
    } else {
      if (!diff.campaign.empty() && diff.campaign != campaign.name) {
        std::printf("\n  baseline: WARNING — comparing campaign \"%s\" "
                    "against baseline of \"%s\"\n",
                    campaign.name.c_str(), diff.campaign.c_str());
      }
      std::printf("\n  baseline diff vs %s:\n", baseline_path);
      for (const std::string& key : diff.new_unexpected) {
        std::printf("    NEW unexpected bucket: %s\n", key.c_str());
      }
      for (const std::string& key : diff.new_expected) {
        std::printf("    new expected bucket:   %s\n", key.c_str());
      }
      for (const std::string& key : diff.resolved) {
        std::printf("    resolved bucket:       %s\n", key.c_str());
      }
      if (diff.new_unexpected.empty() && diff.new_expected.empty() &&
          diff.resolved.empty()) {
        std::printf("    no bucket changes\n");
      }
      baseline_clean = diff.new_unexpected.empty();
      std::printf("  baseline verdict: %s\n",
                  baseline_clean ? "no new unexpected failure buckets"
                                 : "NEW UNEXPECTED FAILURE BUCKETS");
    }
  }
  BenchNote("every scenario seed chains from (campaign seed, template, "
            "instance) — the sweep replays bit-identically anywhere");

  if (json_path != nullptr) {
    JsonObject doc;
    doc["bench"] = "campaign_sweep";
    doc["campaign"] = campaign.name;
    doc["smoke"] = smoke;
    doc["scenarios"] = static_cast<double>(reference.scenarios);
    doc["passed"] = static_cast<double>(reference.passed);
    doc["failed"] = static_cast<double>(reference.failed);
    doc["skipped"] = static_cast<double>(reference.skipped);
    doc["unexpected"] = static_cast<double>(reference.unexpected);
    doc["deterministic"] = deterministic;
    // World-template reuse (DESIGN.md §14): scenarios served from a cached
    // boot template vs scenarios that cold-booted a boot family.
    doc["template_cold_boots"] = static_cast<double>(reference.template_misses);
    doc["template_clones"] = static_cast<double>(reference.template_hits);
    doc["report_digest"] = HexDigest(reference.Digest());
    doc["fleet_digest"] = HexDigest(reference.fleet_digest);
    JsonArray buckets;
    for (const FailureBucket& bucket : reference.buckets) {
      JsonObject row;
      row["key"] = bucket.key;
      row["count"] = static_cast<double>(bucket.count);
      row["expected"] = bucket.expected;
      row["representative"] = bucket.representative;
      row["seed"] = HexDigest(bucket.representative_seed);
      row["first_divergence"] = bucket.first_divergence;
      buckets.push_back(JsonValue(row));
    }
    doc["buckets"] = JsonValue(buckets);
    JsonArray rows;
    for (const Pass& p : passes) {
      JsonObject row;
      row["pass"] = p.label;
      row["threads"] = static_cast<double>(p.threads);
      row["wall_s"] = p.wall_s;
      row["report_digest"] = HexDigest(p.digest);
      row["matches_reference"] = p.matches_reference;
      rows.push_back(JsonValue(row));
    }
    doc["rows"] = JsonValue(rows);
    if (baseline_path != nullptr) {
      JsonObject b;
      b["path"] = baseline_path;
      b["loaded"] = diff.loaded;
      if (!diff.error.empty()) {
        b["error"] = diff.error;
      }
      auto keys = [](const std::vector<std::string>& v) {
        JsonArray a;
        for (const std::string& key : v) {
          a.push_back(JsonValue(key));
        }
        return JsonValue(a);
      };
      b["new_unexpected_buckets"] = keys(diff.new_unexpected);
      b["new_expected_buckets"] = keys(diff.new_expected);
      b["resolved_buckets"] = keys(diff.resolved);
      b["clean"] = baseline_clean;
      doc["baseline"] = JsonValue(b);
    }
    WriteJsonDoc(json_path, doc);
  }
  return deterministic && reference.unexpected == 0 && baseline_clean ? 0 : 1;
}

}  // namespace
}  // namespace androne

int main(int argc, char** argv) { return androne::Run(argc, argv); }
