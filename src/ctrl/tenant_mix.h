// Tenant-mix manifests for the control-plane load generator (DESIGN.md
// §16). A mix declares weighted session classes — each one shape of tenant
// order (waypoints, dwell, spend cap, process count, cancel/crash rates) —
// plus optional serving-path SLO assertions ("latency.plan.p99 <= 50")
// evaluated against the sweep's merged stage histograms. Manifests are
// written in the repo's XML subset and go through one strictly-validating
// parse, and DumpTenantMix emits the canonical form:
// dump(parse(dump(parse(text)))) == dump(parse(text)). One VisitAttrs walk
// per element drives both (src/util/xml_attrs.h), and the member
// initializers below are the manifest defaults.
#ifndef SRC_CTRL_TENANT_MIX_H_
#define SRC_CTRL_TENANT_MIX_H_

#include <string>
#include <vector>

#include "src/scenario/scenario.h"
#include "src/util/status.h"

namespace androne {

// One shape of tenant session. Rates are per-session probabilities drawn
// deterministically by the load generator.
struct SessionClass {
  std::string name;
  double weight = 1;       // Relative share of sessions in the mix.
  int waypoints = 3;       // Mission length the order asks for.
  double dwell_s = 20;     // Per-waypoint dwell the order asks for.
  double max_dollars = 5;  // Billing cap (bounds the energy allotment).
  double spread_m = 400;   // Placement scatter radius for the mission.
  int processes = 5;       // Virtual-drone process count (memory footprint).
  double cancel_rate = 0;  // P(session cancels mid-lifecycle).
  double crash_rate = 0;   // P(tenant container crashes mid-flight).
  double giveup_rate = 0;  // P(recovery gives up | crashed).
};

struct TenantMixSpec {
  std::string name = "mix";
  std::vector<SessionClass> classes;
  // Serving-path SLOs, evaluated against the merged sweep report.
  std::vector<AssertionSpec> slos;
};

// Parses an XML tenant-mix manifest. Strictly validating: unknown
// elements/attributes, non-numeric fields, non-positive weights, rates
// outside [0, 1], and malformed SLO expressions come back as descriptive
// errors. A mix must declare at least one class.
StatusOr<TenantMixSpec> ParseTenantMix(const std::string& text);

// Canonical XML serialization (defaults omitted, FormatNumberCompact
// numbers, canonical assertion spelling).
std::string DumpTenantMix(const TenantMixSpec& mix);

// The built-in mix the bench and smoke tests run: a survey-heavy blend of
// short survey hops, long patrol missions, and a flaky class that cancels
// and crashes, with p99 SLOs on the plan and admit stages.
TenantMixSpec BuiltinTenantMix();

}  // namespace androne

#endif  // SRC_CTRL_TENANT_MIX_H_
