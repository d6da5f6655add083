#include "src/ctrl/tenant_mix.h"

#include <memory>
#include <utility>

#include "src/util/xml.h"
#include "src/util/xml_attrs.h"

namespace androne {

// --- One attribute list per element (src/util/xml_attrs.h) ------------------

template <class A>
void VisitAttrs(A& a, SessionClass& cls) {
  a.Str("name", cls.name, Presence::kRequired);
  a.Number("weight", cls.weight, kPositive);
  a.Int("waypoints", cls.waypoints, 1);
  a.Seconds("dwell_s", cls.dwell_s, kPositive);
  a.Number("max_dollars", cls.max_dollars, kPositive);
  a.Number("spread_m", cls.spread_m, kNonNegative);
  a.Int("processes", cls.processes, 1);
  a.Number("cancel_rate", cls.cancel_rate, kUnitInterval);
  a.Number("crash_rate", cls.crash_rate, kUnitInterval);
  a.Number("giveup_rate", cls.giveup_rate, kUnitInterval);
}

template <class A>
void VisitAttrs(A& a, TenantMixSpec& mix) {
  a.Str("name", mix.name);
}

StatusOr<TenantMixSpec> ParseTenantMix(const std::string& text) {
  if (text.find_first_not_of(" \t\n\r") == std::string::npos) {
    return InvalidArgumentError("tenant mix: empty document");
  }
  ASSIGN_OR_RETURN(auto root, ParseXml(text));
  if (root->name != "tenant_mix") {
    return InvalidArgumentError("tenant mix: root element must be "
                                "<tenant_mix>, got <" + root->name + ">");
  }
  TenantMixSpec mix;
  AttrReader reader(*root);
  VisitAttrs(reader, mix);
  RETURN_IF_ERROR(reader.Finish());
  for (const auto& child : root->children) {
    if (child->name == "class") {
      ASSIGN_OR_RETURN(SessionClass cls, ReadAttrs<SessionClass>(*child));
      mix.classes.push_back(std::move(cls));
    } else if (child->name == "slo") {
      ASSIGN_OR_RETURN(AssertionSpec slo, ReadAttrs<AssertionSpec>(*child));
      mix.slos.push_back(std::move(slo));
    } else {
      return InvalidArgumentError("<tenant_mix>: unknown element <" +
                                  child->name + ">");
    }
  }
  if (mix.classes.empty()) {
    return InvalidArgumentError("<tenant_mix>: declares no <class>");
  }
  return mix;
}

std::string DumpTenantMix(const TenantMixSpec& mix) {
  auto root = WriteAttrs("tenant_mix", mix);
  for (const SessionClass& cls : mix.classes) {
    root->children.push_back(WriteAttrs("class", cls));
  }
  for (const AssertionSpec& slo : mix.slos) {
    root->children.push_back(WriteAttrs("slo", slo));
  }
  return root->Dump();
}

TenantMixSpec BuiltinTenantMix() {
  TenantMixSpec mix;
  mix.name = "builtin";
  SessionClass survey;
  survey.name = "survey";
  survey.weight = 5;
  survey.waypoints = 3;
  survey.dwell_s = 12;
  survey.max_dollars = 4;
  survey.spread_m = 350;
  mix.classes.push_back(survey);
  SessionClass patrol;
  patrol.name = "patrol";
  patrol.weight = 3;
  patrol.waypoints = 5;
  patrol.dwell_s = 25;
  patrol.max_dollars = 9;
  patrol.spread_m = 500;
  patrol.processes = 6;
  mix.classes.push_back(patrol);
  SessionClass flaky;
  flaky.name = "flaky";
  flaky.weight = 2;
  flaky.waypoints = 4;
  flaky.dwell_s = 18;
  flaky.max_dollars = 6;
  flaky.spread_m = 400;
  flaky.cancel_rate = 0.08;
  flaky.crash_rate = 0.25;
  flaky.giveup_rate = 0.2;
  mix.classes.push_back(flaky);
  // Serving-path SLOs the bench gates on (bounds in milliseconds). The
  // order/plan bounds watch the request path proper; the session bound is
  // dominated by queue wait plus mission flight and is sized for the bench
  // load (1200 sessions against 8 boards/shard), where the measured p99 is
  // ~1880 s — 40 minutes holds ~25% headroom while still catching a
  // serving-path or admission regression that stretches the queue.
  const char* slos[] = {
      "latency.order.p99 <= 2000",
      "latency.plan.p99 <= 1000",
      "latency.session.p99 <= 2400000",
  };
  for (const char* expr : slos) {
    StatusOr<AssertionSpec> spec = ParseAssertion(expr);
    if (spec.ok()) {
      mix.slos.push_back(std::move(spec).value());
    }
  }
  return mix;
}

}  // namespace androne
