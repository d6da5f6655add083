#include "src/scenario/manifest.h"

#include <memory>
#include <utility>

#include "src/util/xml.h"
#include "src/util/xml_attrs.h"

namespace androne {

namespace {

// One chaos layer's window spelling: the element, the kind names (kind i
// spells kinds[i]), and the attribute naming the scope, where scopes[0]
// spells kFaultScopeAll and scopes[i + 1] scope i. |check| applies the
// layer's own rules (pinned channels, parameter ranges) and may
// canonicalize the window.
struct FaultVocabulary {
  std::string element;
  std::vector<std::string> kinds;
  std::string scope_attr;
  std::vector<std::string> scopes;
  Status (*check)(FaultWindowSpec& window);
};

const FaultVocabulary& NetFaultVocabulary() {
  static const FaultVocabulary* vocab = new FaultVocabulary{
      "net_fault",
      {"outage", "burst_loss", "latency"},
      "dir",
      {"both", "forward", "reverse"},
      [](FaultWindowSpec& window) { return FaultPlan().AddWindow(window); }};
  return *vocab;
}

const FaultVocabulary& SensorFaultVocabulary() {
  static const FaultVocabulary* vocab = new FaultVocabulary{
      "sensor_fault",
      {"dropout", "stuck", "bias_drift", "noise_inflation", "gps_jump",
       "baro_spike", "battery_sag"},
      "channel",
      {"all", "gps", "imu", "baro", "mag", "battery"},
      [](FaultWindowSpec& window) {
        // A pinned kind with the channel omitted is a fault on that
        // channel, and the dump should say so rather than echo "all".
        auto pinned = PinnedChannelOf(static_cast<SensorFaultKind>(window.kind));
        if (pinned.has_value() && window.scope == kFaultScopeAll) {
          window.scope = static_cast<int>(*pinned);
        }
        return SensorFaultPlan().AddWindow(window);
      }};
  return *vocab;
}

// "8,20,31" -> {8, 20, 31}. The separator is a comma so the list rides in
// one XML attribute; spaces around entries are not accepted (the canonical
// dump never emits them).
StatusOr<std::vector<double>> ParseCrashTimes(const std::string& text) {
  std::vector<double> times;
  size_t start = 0;
  for (;;) {
    const size_t comma = text.find(',', start);
    ASSIGN_OR_RETURN(double at,
                     ParseSeconds(text.substr(start, comma - start),
                                  kAnyNumber));
    times.push_back(at);
    if (comma == std::string::npos) {
      return times;
    }
    start = comma + 1;
  }
}

std::string FormatCrashTimes(const std::vector<double>& times) {
  std::string text;
  for (double at : times) {
    text += (text.empty() ? "" : ",") + FormatNumberCompact(at);
  }
  return text;
}

}  // namespace

// --- One attribute list per element (src/util/xml_attrs.h) ------------------

template <class A>
void VisitAttrs(A& a, JitteredWindow& w, const FaultVocabulary& vocab) {
  FaultWindowSpec& window = w.window;
  a.Choice("kind", window.kind, vocab.kinds, 0, Presence::kRequired);
  a.Choice(vocab.scope_attr, window.scope, vocab.scopes, kFaultScopeAll,
           Presence::kAlwaysDumped);
  // dur_s spells end - start, so take it before start_s moves the start.
  SimDuration dur = window.end - window.start;
  a.Time("start_s", window.start, Seconds(1), Presence::kAlwaysDumped);
  a.Time("dur_s", dur, Seconds(1), Presence::kAlwaysDumped);
  if constexpr (A::kReading) {
    window.end = window.start + dur;
  }
  a.Number("p0", window.p0, kAnyNumber);
  a.Number("p1", window.p1, kAnyNumber);
  a.Time("d0_ms", window.d0, Millis(1));
  a.Seconds("jitter_s", w.start_jitter_s, kNonNegative);
}

template <class A>
void VisitAttrs(A& a, CrashLoopConfig& crash_loop) {
  a.Int("count", crash_loop.count, 1, Presence::kRequired);
  a.Seconds("start_s", crash_loop.start_s, kNonNegative);
  a.Seconds("period_s", crash_loop.period_s, kPositive);
  a.Int("max_restarts", crash_loop.max_restarts, 0);
}

template <class A>
void VisitAttrs(A& a, CrashPlanConfig& crash) {
  a.Field("at_s", crash.at_s, ParseCrashTimes, FormatCrashTimes,
          Presence::kRequired);
  a.Seconds("checkpoint_s", crash.checkpoint_s, kNonNegative);
  a.Bool("phase_checkpoints", crash.phase_checkpoints);
  a.Seconds("jitter_s", crash.jitter_s, kNonNegative);
  a.Int("max_restores", crash.max_restores, 0);
}

template <class A>
void VisitAttrs(A& a, ScenarioTemplate& tmpl) {
  a.Str("name", tmpl.name, Presence::kRequired);
  a.Int("repeat", tmpl.repeat, 1);
  a.IntRange("tenants", tmpl.tenants_min, tmpl.tenants_max, 1);
  a.Seconds("dwell_s", tmpl.dwell_s, kNonNegative);
  a.Number("spread_m", tmpl.spread_m, kNonNegative);
  a.Int("annealing", tmpl.annealing, 1);
  a.Number("memory_mb", tmpl.memory_mb, kNonNegative);
  a.Field("profile", tmpl.profile, LinkProfileFromName, LinkProfileName);
  a.Bool("tolerate_rejection", tmpl.tolerate_rejection);
  a.Bool("expect_fail", tmpl.expect_fail);
}

template <class A>
void VisitAttrs(A& a, CampaignSpec& campaign) {
  a.Str("name", campaign.name);
  // Every scenario seed derives from this one, so it is read as an exact
  // integer: a double would silently round seeds above 2^53.
  a.U64("seed", campaign.seed);
}

namespace {

// Cross-field rules run after each walk.
StatusOr<JitteredWindow> ParseFault(const XmlElement& element,
                                    const FaultVocabulary& vocab) {
  ASSIGN_OR_RETURN(JitteredWindow w, ReadAttrs<JitteredWindow>(element, vocab));
  Status status = vocab.check(w.window);
  if (!status.ok()) {
    return InvalidArgumentError("<" + element.name + ">: " + status.message());
  }
  return w;
}

StatusOr<CrashLoopConfig> ParseCrashLoop(const XmlElement& element) {
  ASSIGN_OR_RETURN(CrashLoopConfig config, ReadAttrs<CrashLoopConfig>(element));
  if (config.start_s + (config.count - 1) * config.period_s >
      kMaxManifestSeconds) {
    return InvalidArgumentError(
        "<crash_loop>: the last crash, start_s + (count - 1) * period_s, is "
        "past " + FormatNumberCompact(kMaxManifestSeconds) + " s");
  }
  return config;
}

StatusOr<ScenarioTemplate> ParseScenario(const XmlElement& element) {
  ScenarioTemplate tmpl;
  AttrReader reader(element);
  VisitAttrs(reader, tmpl);
  RETURN_IF_ERROR(reader.Finish());
  const std::string& where = reader.where();
  for (const auto& child : element.children) {
    if (child->name == NetFaultVocabulary().element) {
      ASSIGN_OR_RETURN(JitteredWindow w,
                       ParseFault(*child, NetFaultVocabulary()));
      tmpl.net_windows.push_back(w);
    } else if (child->name == SensorFaultVocabulary().element) {
      ASSIGN_OR_RETURN(JitteredWindow w,
                       ParseFault(*child, SensorFaultVocabulary()));
      tmpl.sensor_windows.push_back(w);
    } else if (child->name == "crash_loop") {
      if (tmpl.crash_loop.enabled()) {
        return InvalidArgumentError(where +
                                    ": more than one <crash_loop> element");
      }
      ASSIGN_OR_RETURN(tmpl.crash_loop, ParseCrashLoop(*child));
    } else if (child->name == "crash") {
      if (tmpl.crash.enabled()) {
        return InvalidArgumentError(where +
                                    ": more than one <crash> element");
      }
      ASSIGN_OR_RETURN(tmpl.crash, ReadAttrs<CrashPlanConfig>(*child));
      RETURN_IF_ERROR(ValidateCrashPlan(tmpl.crash, "<crash>"));
    } else if (child->name == "assert") {
      ASSIGN_OR_RETURN(AssertionSpec assertion,
                       ReadAttrs<AssertionSpec>(*child));
      tmpl.assertions.push_back(std::move(assertion));
    } else {
      return InvalidArgumentError(where + ": unknown element <" +
                                  child->name + ">");
    }
  }
  return tmpl;
}

std::unique_ptr<XmlElement> DumpScenario(const ScenarioTemplate& tmpl) {
  auto element = WriteAttrs("scenario", tmpl);
  auto windows = [&element](const std::vector<JitteredWindow>& list,
                            const FaultVocabulary& vocab) {
    for (const JitteredWindow& w : list) {
      element->children.push_back(WriteAttrs(vocab.element, w, vocab));
    }
  };
  windows(tmpl.net_windows, NetFaultVocabulary());
  windows(tmpl.sensor_windows, SensorFaultVocabulary());
  if (tmpl.crash_loop.enabled()) {
    element->children.push_back(WriteAttrs("crash_loop", tmpl.crash_loop));
  }
  if (tmpl.crash.enabled()) {
    element->children.push_back(WriteAttrs("crash", tmpl.crash));
  }
  for (const AssertionSpec& assertion : tmpl.assertions) {
    element->children.push_back(WriteAttrs("assert", assertion));
  }
  return element;
}

}  // namespace

StatusOr<CampaignSpec> ParseCampaignManifest(const std::string& text) {
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
    return InvalidArgumentError("empty campaign manifest");
  }
  ASSIGN_OR_RETURN(auto root, ParseXml(text));
  if (root->name != "campaign") {
    return InvalidArgumentError("manifest root must be <campaign>, got <" +
                                root->name + ">");
  }
  CampaignSpec campaign;
  AttrReader reader(*root);
  VisitAttrs(reader, campaign);
  RETURN_IF_ERROR(reader.Finish());
  for (const auto& child : root->children) {
    if (child->name != "scenario") {
      return InvalidArgumentError("<campaign>: unknown element <" +
                                  child->name + ">");
    }
    ASSIGN_OR_RETURN(ScenarioTemplate tmpl, ParseScenario(*child));
    campaign.templates.push_back(std::move(tmpl));
  }
  return campaign;
}

std::string DumpCampaignManifest(const CampaignSpec& campaign) {
  auto root = WriteAttrs("campaign", campaign);
  for (const ScenarioTemplate& tmpl : campaign.templates) {
    root->children.push_back(DumpScenario(tmpl));
  }
  return root->Dump();
}

}  // namespace androne
