// Chaos campaign: load a declarative scenario manifest, expand it into a
// seeded sweep, run the sweep through the fleet executor, and triage any
// failures down to the first trace event where chaos bent the run.
//
//   ./examples/chaos_campaign [manifest.xml]
//
// Without an argument a small built-in campaign is used (the same families
// as examples/campaign_smoke.xml, shrunk to run in a few seconds). With a
// manifest path, that XML file is loaded instead.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/campaign.h"
#include "src/scenario/generator.h"
#include "src/scenario/manifest.h"
#include "src/util/logging.h"

using namespace androne;

namespace {

// A three-family campaign built in code: the same CampaignSpec a manifest
// parses into, so everything below works identically for loaded files.
CampaignSpec BuiltinCampaign() {
  CampaignSpec campaign;
  campaign.name = "example-chaos";
  campaign.seed = 404;

  ScenarioTemplate baseline;
  baseline.name = "baseline";
  baseline.repeat = 2;
  baseline.tenants_min = 1;
  baseline.tenants_max = 2;
  baseline.dwell_s = 3;
  baseline.annealing = 60;
  baseline.assertions = {*ParseAssertion("completed == 1"),
                         *ParseAssertion("downlink_frames >= 1")};
  campaign.templates.push_back(baseline);

  // A forward-link outage with per-instance start jitter: every expanded
  // scenario hits the blackout at a slightly different point in the flight.
  ScenarioTemplate link = baseline;
  link.name = "link_outage";
  link.repeat = 3;
  link.assertions = {*ParseAssertion("completed == 1")};
  JitteredWindow outage;
  outage.window.kind = 0;  // outage
  outage.window.scope = kFaultScopeAll;
  outage.window.start = SecondsF(15);
  outage.window.end = SecondsF(21);
  outage.start_jitter_s = 5;
  link.net_windows.push_back(outage);
  campaign.templates.push_back(link);

  // A family that is EXPECTED to fail: a large unguarded GPS jump stalls
  // the mission, and the assertion is deliberately unreachable. The triage
  // pass pins where its trace first diverges from a fault-free twin.
  ScenarioTemplate seeded = baseline;
  seeded.name = "seeded_failure";
  seeded.repeat = 1;
  seeded.expect_fail = true;
  seeded.assertions = {*ParseAssertion("waypoints_visited >= 100")};
  JitteredWindow jump;
  jump.window.kind = 4;   // gps_jump
  jump.window.scope = 0;  // gps (pinned)
  jump.window.start = SecondsF(15);
  jump.window.end = SecondsF(25);
  jump.window.p0 = 80;  // north offset, meters
  jump.window.p1 = 60;  // east offset, meters
  seeded.sensor_windows.push_back(jump);
  campaign.templates.push_back(seeded);

  return campaign;
}

}  // namespace

int main(int argc, char** argv) {
  SetMinLogLevel(LogLevel::kWarning);

  CampaignSpec campaign;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto loaded = ParseCampaignManifest(text.str());
    if (!loaded.ok()) {
      std::fprintf(stderr, "manifest error: %s\n",
                   loaded.status().message().c_str());
      return 1;
    }
    campaign = std::move(*loaded);
  } else {
    campaign = BuiltinCampaign();
  }

  auto scenarios = ExpandScenarios(campaign);
  if (!scenarios.ok()) {
    std::fprintf(stderr, "expansion error: %s\n",
                 scenarios.status().message().c_str());
    return 1;
  }
  std::printf("campaign %s: %zu scenarios from %zu templates\n\n",
              campaign.name.c_str(), scenarios->size(),
              campaign.templates.size());

  CampaignOptions options;
  options.name = campaign.name;
  options.threads = 2;
  CampaignReport report = CampaignRunner(options).Run(*scenarios);
  std::printf("%s\n", report.ToText().c_str());

  // Replay one failing representative with full tracing — the same path
  // `campaign_sweep --repro <name>` takes.
  for (const FailureBucket& bucket : report.buckets) {
    auto repro = CampaignRunner::Repro(*scenarios, bucket.representative);
    if (!repro.ok()) {
      continue;
    }
    std::printf("repro %s: completed=%d digest=%016llx trace_lines=%zu\n",
                bucket.representative.c_str(), repro->completed ? 1 : 0,
                static_cast<unsigned long long>(repro->digest),
                static_cast<size_t>(
                    std::count(repro->trace_text.begin(),
                               repro->trace_text.end(), '\n')));
  }

  // The CI contract: every failure must be an expected one.
  return report.unexpected == 0 ? 0 : 1;
}
