#include "src/scenario/campaign.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "src/exec/world_template.h"
#include "src/obs/triage.h"
#include "src/util/bytes.h"

namespace androne {

namespace {

// Runs one scenario world: seed pinned to the spec (the executor preserves
// a nonzero result seed), assertions evaluated in-world so the verdict
// rides the WorldResult through the merge.
WorldResult RunScenarioWorld(const ScenarioSpec& spec,
                             const WorldContext& ctx,
                             uint32_t trace_categories,
                             size_t trace_capacity,
                             WorldTemplateCache* templates) {
  FleetWorldConfig config = ScenarioWorldConfig(spec);
  config.trace_categories = trace_categories;
  config.trace_capacity = trace_capacity;
  config.templates = templates;
  WorldContext scenario_ctx = ctx;
  scenario_ctx.seed = spec.seed;
  WorldResult result = RunFleetWorld(config, scenario_ctx);
  result.seed = spec.seed;
  result.scenario = spec.name;
  result.failed_assertions = EvaluateAssertions(spec.assertions, result);
  return result;
}

// The representative's fault-stripped twin: same seed, same mission shape,
// no chaos. Diffing its trace against the faulted run's localizes the first
// event the chaos perturbed.
WorldResult RunNominalTwin(const ScenarioSpec& spec, const WorldContext& ctx,
                           uint32_t trace_categories, size_t trace_capacity,
                           WorldTemplateCache* templates) {
  FleetWorldConfig config = spec.world;  // Plan pointers stay null.
  config.templates = templates;
  config.crash_loop = CrashLoopConfig{};
  // Crash-family worlds replay bit-identically after recovery, so a twin
  // with the crashes stripped (and checkpointing off — captures are pure
  // reads, but the twin should run the plain path) is still the exact
  // no-chaos baseline.
  config.crash_at_s.clear();
  config.checkpoint = CheckpointPolicy{/*period_s=*/0,
                                       /*at_phase_boundaries=*/false};
  config.trace_categories = trace_categories;
  config.trace_capacity = trace_capacity;
  WorldContext twin_ctx = ctx;
  twin_ctx.seed = spec.seed;
  return RunFleetWorld(config, twin_ctx);
}

// The trace export leads with "# ..." metadata (event/drop counts) that
// differs whenever the runs differ at all; triage wants the first divergent
// *event*, so comment lines are stripped before the diff and the reported
// line number indexes event lines.
std::string StripTraceComments(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') {
      continue;
    }
    out << line << "\n";
  }
  return out.str();
}

std::string CompactDivergence(const std::string& faulted,
                              const std::string& nominal) {
  DivergencePoint point = FirstDivergentLine(StripTraceComments(faulted),
                                             StripTraceComments(nominal));
  if (point.identical()) {
    return "identical";
  }
  std::ostringstream out;
  out << "event line " << point.line << ": faulted=\"" << point.a
      << "\" nominal=\"" << point.b << "\"";
  return out.str();
}

}  // namespace

std::string CampaignReport::ToText() const {
  std::ostringstream out;
  out << "campaign " << name << "\n";
  out << "scenarios " << scenarios << "\n";
  out << "passed " << passed << "\n";
  out << "failed " << failed << "\n";
  out << "skipped " << skipped << "\n";
  out << "unexpected " << unexpected << "\n";
  out << "fleet_digest " << std::hex << fleet_digest << std::dec << "\n";
  out << "metrics_digest " << std::hex << metrics.Digest() << std::dec
      << "\n";
  for (const FailureBucket& bucket : buckets) {
    out << "bucket " << bucket.key << "\n";
    out << "  count " << bucket.count << "\n";
    out << "  expected " << (bucket.expected ? "true" : "false") << "\n";
    out << "  representative " << bucket.representative << "\n";
    out << "  seed " << std::hex << bucket.representative_seed << std::dec
        << "\n";
    for (const std::string& assertion : bucket.failed_assertions) {
      out << "  assert " << assertion << "\n";
    }
    if (!bucket.first_divergence.empty()) {
      out << "  divergence " << bucket.first_divergence << "\n";
    }
  }
  return out.str();
}

uint64_t CampaignReport::Digest() const {
  std::string text = ToText();
  return Fnv1a64(text.data(), text.size());
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {}

CampaignReport CampaignRunner::Run(
    const std::vector<ScenarioSpec>& scenarios) {
  FleetOptions fleet;
  fleet.threads = options_.threads;
  fleet.base_seed = options_.base_seed;
  fleet.wall_budget_ms = options_.wall_budget_ms;
  FleetExecutor executor(fleet);

  // One template cache for the whole sweep: scenarios sharing a boot
  // fingerprint (most of a campaign — chaos axes act after the boundary)
  // cold-boot exactly once per family and clone thereafter.
  WorldTemplateCache templates;

  // Campaign worlds run untraced — tracing is reserved for the serial
  // triage re-runs, so the sweep itself stays at production cost.
  FleetReport fleet_report = executor.Run(
      static_cast<int>(scenarios.size()),
      [&scenarios, &templates](const WorldContext& ctx) {
        return RunScenarioWorld(scenarios[static_cast<size_t>(ctx.index)],
                                ctx, /*trace_categories=*/0,
                                /*trace_capacity=*/0, &templates);
      });

  CampaignReport report;
  report.name = options_.name;
  report.scenarios = static_cast<int>(scenarios.size());
  report.skipped = fleet_report.skipped;
  report.metrics = fleet_report.metrics;
  report.fleet_digest = fleet_report.fleet_digest;
  report.wall_seconds = fleet_report.wall_seconds;
  // Snapshot before triage: triage re-runs acquire from the same cache but
  // report only sweep-phase reuse.
  report.template_hits = templates.hits();
  report.template_misses = templates.misses();
  // Also surfaced through the merged metrics (like worlds_skipped): totals
  // are deterministic — exactly one miss per boot family, hits = runs -
  // misses — so they ride the byte-stable metrics digest.
  if (report.template_hits + report.template_misses > 0) {
    report.metrics.counters["fleet.template_hits"] +=
        static_cast<double>(report.template_hits);
    report.metrics.counters["fleet.template_misses"] +=
        static_cast<double>(report.template_misses);
  }

  // Bucket failures in world-index order; map keys keep the bucket list
  // sorted and the representative (first failing index) deterministic.
  std::map<std::string, FailureBucket> buckets;
  std::map<std::string, int> bucket_indices;
  for (size_t i = 0; i < fleet_report.worlds.size(); ++i) {
    const WorldResult& world = fleet_report.worlds[i];
    const ScenarioSpec& spec = scenarios[i];
    if (world.skipped) {
      continue;  // Already counted; never ran, so no verdict.
    }
    const bool failing = !world.failed_assertions.empty();
    if (failing != spec.expect_fail) {
      ++report.unexpected;
    }
    if (!failing) {
      ++report.passed;
      continue;
    }
    ++report.failed;
    std::string key =
        FailureBucketKey(spec.family, world.failed_assertions);
    auto [it, inserted] = buckets.try_emplace(key);
    FailureBucket& bucket = it->second;
    if (inserted) {
      bucket.key = key;
      bucket.expected = true;
      bucket.representative = spec.name;
      bucket.representative_seed = spec.seed;
      bucket.failed_assertions = world.failed_assertions;
      std::sort(bucket.failed_assertions.begin(),
                bucket.failed_assertions.end());
      bucket_indices[key] = static_cast<int>(i);
    }
    ++bucket.count;
    bucket.expected = bucket.expected && spec.expect_fail;
  }

  // Triage: serial re-runs in bucket (= key) order keep the report
  // deterministic at any thread count.
  for (auto& [key, bucket] : buckets) {
    if (options_.triage) {
      const ScenarioSpec& spec =
          scenarios[static_cast<size_t>(bucket_indices[key])];
      WorldContext ctx;
      ctx.index = bucket_indices[key];
      WorldResult faulted = RunScenarioWorld(
          spec, ctx, options_.trace_categories, options_.trace_capacity,
          &templates);
      WorldResult nominal = RunNominalTwin(
          spec, ctx, options_.trace_categories, options_.trace_capacity,
          &templates);
      bucket.first_divergence =
          CompactDivergence(faulted.trace_text, nominal.trace_text);
    }
    report.buckets.push_back(std::move(bucket));
  }
  return report;
}

StatusOr<WorldResult> CampaignRunner::Repro(
    const std::vector<ScenarioSpec>& scenarios, const std::string& name,
    uint32_t trace_categories, size_t trace_capacity) {
  for (size_t i = 0; i < scenarios.size(); ++i) {
    if (scenarios[i].name == name) {
      WorldContext ctx;
      ctx.index = static_cast<int>(i);
      return RunScenarioWorld(scenarios[i], ctx, trace_categories,
                              trace_capacity, /*templates=*/nullptr);
    }
  }
  return NotFoundError("no scenario named \"" + name +
                       "\" in this campaign (names look like "
                       "\"family/t2#0\")");
}

}  // namespace androne
