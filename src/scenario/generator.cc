#include "src/scenario/generator.h"

#include <algorithm>
#include <string>

#include "src/util/rng.h"

namespace androne {

namespace {

// Applies instance jitter to one window and appends it to |plan| (FaultPlan
// or SensorFaultPlan — both expose Status AddWindow). The jitter shifts the
// whole window (duration preserved) and clamps at t=0.
template <typename Plan>
Status AddJittered(Plan& plan, const JitteredWindow& spec, Rng& rng,
                   const std::string& where) {
  FaultWindowSpec window = spec.window;
  if (spec.start_jitter_s > 0) {
    SimDuration shift =
        SecondsF(rng.Uniform(-spec.start_jitter_s, spec.start_jitter_s));
    SimTime start = std::max<SimTime>(0, window.start + shift);
    window.end = start + (window.end - window.start);
    window.start = start;
  }
  Status status = plan.AddWindow(window);
  if (!status.ok()) {
    return InvalidArgumentError(where + ": " + status.message());
  }
  return OkStatus();
}

}  // namespace

Status ValidateCrashPlan(const CrashPlanConfig& crash,
                         const std::string& where) {
  double previous = 0;
  for (double at : crash.at_s) {
    if (at <= previous) {
      return InvalidArgumentError(
          where + ": crash at_s times must be positive and strictly "
                  "ascending");
    }
    previous = at;
  }
  if (crash.checkpoint_s < 0) {
    return InvalidArgumentError(where + ": negative crash checkpoint_s");
  }
  if (crash.jitter_s < 0) {
    return InvalidArgumentError(where + ": negative crash jitter_s");
  }
  if (crash.max_restores < 0) {
    return InvalidArgumentError(where + ": negative crash max_restores");
  }
  return OkStatus();
}

StatusOr<std::vector<ScenarioSpec>> ExpandScenarios(
    const CampaignSpec& campaign) {
  std::vector<ScenarioSpec> scenarios;
  int64_t total = 0;
  for (size_t ti = 0; ti < campaign.templates.size(); ++ti) {
    const ScenarioTemplate& tmpl = campaign.templates[ti];
    const std::string where = "scenario \"" + tmpl.name + "\"";
    if (tmpl.name.empty()) {
      return InvalidArgumentError("scenario template " + std::to_string(ti) +
                                  ": missing name");
    }
    if (tmpl.repeat < 1) {
      return InvalidArgumentError(where + ": repeat must be >= 1");
    }
    if (tmpl.tenants_min < 1 || tmpl.tenants_max < tmpl.tenants_min) {
      return InvalidArgumentError(where + ": invalid tenant range [" +
                                  std::to_string(tmpl.tenants_min) + ", " +
                                  std::to_string(tmpl.tenants_max) + "]");
    }
    if (tmpl.crash.enabled()) {
      RETURN_IF_ERROR(ValidateCrashPlan(tmpl.crash, where));
    }
    total += tmpl.instance_count();
    if (total > kMaxCampaignScenarios) {
      return InvalidArgumentError(
          where + ": the campaign expands to more than " +
          std::to_string(kMaxCampaignScenarios) + " scenarios");
    }

    // Template-level seed chain: decorrelated from sibling templates even
    // when their instance counts change, because it keys on the template
    // index, not the running instance total.
    uint64_t chain = SplitMix64(campaign.seed + ti + 1);
    for (int tenants = tmpl.tenants_min; tenants <= tmpl.tenants_max;
         ++tenants) {
      for (int rep = 0; rep < tmpl.repeat; ++rep) {
        chain = SplitMix64(chain + 1);
        ScenarioSpec spec;
        spec.family = tmpl.name;
        spec.name = tmpl.name + "/t" + std::to_string(tenants) + "#" +
                    std::to_string(rep);
        spec.seed = chain == 0 ? 1 : chain;  // 0 means "index-derived".
        spec.expect_fail = tmpl.expect_fail;
        spec.assertions = tmpl.assertions;

        spec.world.tenants = tenants;
        spec.world.dwell_s = tmpl.dwell_s;
        spec.world.waypoint_spread_m = tmpl.spread_m;
        spec.world.annealing_iterations = tmpl.annealing;
        spec.world.memory_budget_mb = tmpl.memory_mb;
        spec.world.downlink_profile = tmpl.profile;
        spec.world.crash_loop = tmpl.crash_loop;
        spec.world.tolerate_deploy_rejection = tmpl.tolerate_rejection;

        Rng jitter(SplitMix64(spec.seed ^ 0x117e4));
        for (const JitteredWindow& w : tmpl.net_windows) {
          RETURN_IF_ERROR(AddJittered(spec.net_faults, w, jitter,
                                      where + " net_fault"));
        }
        for (const JitteredWindow& w : tmpl.sensor_windows) {
          RETURN_IF_ERROR(AddJittered(spec.sensor_faults, w, jitter,
                                      where + " sensor_fault"));
        }
        if (tmpl.crash.enabled()) {
          // One shift for the whole schedule preserves the inter-crash
          // gaps — the sweep probes where crashes land in the mission,
          // not the spacing between them.
          double shift = 0;
          if (tmpl.crash.jitter_s > 0) {
            shift =
                jitter.Uniform(-tmpl.crash.jitter_s, tmpl.crash.jitter_s);
          }
          for (double at : tmpl.crash.at_s) {
            spec.world.crash_at_s.push_back(std::max(0.0, at + shift));
          }
          spec.world.checkpoint.period_s = tmpl.crash.checkpoint_s;
          spec.world.checkpoint.at_phase_boundaries =
              tmpl.crash.phase_checkpoints;
          spec.world.max_restores = tmpl.crash.max_restores;
        }
        scenarios.push_back(std::move(spec));
      }
    }
  }
  return scenarios;
}

}  // namespace androne
