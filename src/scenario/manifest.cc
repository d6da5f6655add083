#include "src/scenario/manifest.h"

#include <charconv>
#include <memory>
#include <utility>

#include "src/util/json.h"
#include "src/util/xml.h"

namespace androne {

namespace {

constexpr char kJitterAttr[] = "jitter_s";

// Manifest defaults, shared by the parser (fallbacks) and the dumper
// (omission). Must track the ScenarioTemplate member initializers.
const ScenarioTemplate kTemplateDefaults;
const CrashLoopConfig kCrashLoopDefaults;
const CrashPlanConfig kCrashDefaults;

StatusOr<bool> ParseManifestBool(const std::string& text,
                                 const std::string& what) {
  if (text == "true") {
    return true;
  }
  if (text == "false") {
    return false;
  }
  return InvalidArgumentError(what + ": \"" + text +
                              "\" is not a boolean (expected true or false)");
}

StatusOr<JitteredWindow> ParseFaultElement(const XmlElement& element,
                                           const FaultVocabulary& vocabulary,
                                           bool sensor) {
  JitteredWindow jittered;
  ASSIGN_OR_RETURN(jittered.window,
                   FaultWindowFromXml(element, vocabulary, {kJitterAttr}));
  ASSIGN_OR_RETURN(
      jittered.start_jitter_s,
      ParseManifestSeconds(element.Attr(kJitterAttr, "0"),
                           "<" + element.name + "> " + kJitterAttr));
  if (jittered.start_jitter_s < 0) {
    return InvalidArgumentError("<" + element.name + ">: negative " +
                                kJitterAttr);
  }
  // Probe the layer facade so kind-specific rules (pinned channels,
  // probability ranges) reject at load time, not at expansion time.
  if (sensor) {
    SensorFaultPlan probe;
    Status status = probe.AddWindow(jittered.window);
    if (!status.ok()) {
      return InvalidArgumentError("<" + element.name + ">: " +
                                  status.message());
    }
    // Canonicalize pinned kinds: a gps_jump with the channel omitted is a
    // GPS fault, and the dump should say so rather than echo "all".
    auto pinned = PinnedChannelOf(
        static_cast<SensorFaultKind>(jittered.window.kind));
    if (pinned.has_value() && jittered.window.scope == kFaultScopeAll) {
      jittered.window.scope = static_cast<int>(*pinned);
    }
  } else {
    FaultPlan probe;
    Status status = probe.AddWindow(jittered.window);
    if (!status.ok()) {
      return InvalidArgumentError("<" + element.name + ">: " +
                                  status.message());
    }
  }
  return jittered;
}

StatusOr<CrashLoopConfig> ParseCrashLoop(const XmlElement& element) {
  RETURN_IF_ERROR(CheckNoText(element));
  RETURN_IF_ERROR(CheckAttributes(
      element, {"count", "start_s", "period_s", "max_restarts"}));
  if (!element.children.empty()) {
    return InvalidArgumentError("<crash_loop>: unexpected child element");
  }
  CrashLoopConfig config;
  if (element.Attr("count").empty()) {
    return InvalidArgumentError("<crash_loop>: missing count attribute");
  }
  ASSIGN_OR_RETURN(config.count, ParseManifestInt(element.Attr("count"),
                                                  "<crash_loop> count", 1));
  ASSIGN_OR_RETURN(
      config.start_s,
      ParseManifestSeconds(
          element.Attr("start_s", FormatNumberCompact(config.start_s)),
          "<crash_loop> start_s"));
  ASSIGN_OR_RETURN(
      config.period_s,
      ParseManifestSeconds(
          element.Attr("period_s", FormatNumberCompact(config.period_s)),
          "<crash_loop> period_s"));
  if (config.start_s < 0 || config.period_s <= 0) {
    return InvalidArgumentError(
        "<crash_loop>: start_s must be >= 0 and period_s > 0");
  }
  if (config.start_s + (config.count - 1) * config.period_s >
      kMaxManifestSeconds) {
    return InvalidArgumentError(
        "<crash_loop>: the last crash, start_s + (count - 1) * period_s, is "
        "past " + FormatNumberCompact(kMaxManifestSeconds) + " s");
  }
  ASSIGN_OR_RETURN(
      config.max_restarts,
      ParseManifestInt(element.Attr("max_restarts",
                                    std::to_string(config.max_restarts)),
                       "<crash_loop> max_restarts", 0));
  return config;
}

// "8,20,31" -> {8, 20, 31}. The separator is a comma so the list rides in
// one XML attribute; spaces around entries are not accepted (the canonical
// dump never emits them).
StatusOr<std::vector<double>> ParseCrashTimes(const std::string& text,
                                              const std::string& what) {
  std::vector<double> times;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    size_t end = comma == std::string::npos ? text.size() : comma;
    ASSIGN_OR_RETURN(double value,
                     ParseManifestSeconds(text.substr(start, end - start),
                                          what));
    times.push_back(value);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return times;
}

StatusOr<CrashPlanConfig> ParseCrash(const XmlElement& element) {
  RETURN_IF_ERROR(CheckNoText(element));
  RETURN_IF_ERROR(CheckAttributes(
      element, {"at_s", "checkpoint_s", "phase_checkpoints", kJitterAttr,
                "max_restores"}));
  if (!element.children.empty()) {
    return InvalidArgumentError("<crash>: unexpected child element");
  }
  CrashPlanConfig config;
  if (element.Attr("at_s").empty()) {
    return InvalidArgumentError("<crash>: missing at_s attribute");
  }
  ASSIGN_OR_RETURN(config.at_s,
                   ParseCrashTimes(element.Attr("at_s"), "<crash> at_s"));
  ASSIGN_OR_RETURN(
      config.checkpoint_s,
      ParseManifestSeconds(
          element.Attr("checkpoint_s",
                       FormatNumberCompact(config.checkpoint_s)),
          "<crash> checkpoint_s"));
  ASSIGN_OR_RETURN(
      config.phase_checkpoints,
      ParseManifestBool(
          element.Attr("phase_checkpoints",
                       config.phase_checkpoints ? "true" : "false"),
          "<crash> phase_checkpoints"));
  ASSIGN_OR_RETURN(
      config.jitter_s,
      ParseManifestSeconds(
          element.Attr(kJitterAttr, FormatNumberCompact(config.jitter_s)),
          std::string("<crash> ") + kJitterAttr));
  ASSIGN_OR_RETURN(
      config.max_restores,
      ParseManifestInt(element.Attr("max_restores",
                                    std::to_string(config.max_restores)),
                       "<crash> max_restores", 0));
  RETURN_IF_ERROR(ValidateCrashPlan(config, "<crash>"));
  return config;
}

StatusOr<ScenarioTemplate> ParseScenarioElement(const XmlElement& element) {
  RETURN_IF_ERROR(CheckNoText(element));
  RETURN_IF_ERROR(CheckAttributes(
      element,
      {"name", "repeat", "tenants", "tenants_min", "tenants_max", "dwell_s",
       "spread_m", "annealing", "memory_mb", "profile", "tolerate_rejection",
       "expect_fail"}));

  ScenarioTemplate tmpl;
  tmpl.name = element.Attr("name");
  if (tmpl.name.empty()) {
    return InvalidArgumentError("<scenario>: missing name attribute");
  }
  const std::string where = "<scenario name=\"" + tmpl.name + "\">";

  ASSIGN_OR_RETURN(tmpl.repeat,
                   ParseManifestInt(element.Attr("repeat", "1"),
                                    where + " repeat", 1));
  const bool has_plain = !element.Attr("tenants").empty();
  const bool has_range = !element.Attr("tenants_min").empty() ||
                         !element.Attr("tenants_max").empty();
  if (has_plain && has_range) {
    return InvalidArgumentError(
        where + ": give either tenants or tenants_min/tenants_max, not both");
  }
  if (has_plain) {
    ASSIGN_OR_RETURN(tmpl.tenants_min,
                     ParseManifestInt(element.Attr("tenants"),
                                      where + " tenants", 1));
    tmpl.tenants_max = tmpl.tenants_min;
  } else if (has_range) {
    ASSIGN_OR_RETURN(
        tmpl.tenants_min,
        ParseManifestInt(
            element.Attr("tenants_min", std::to_string(tmpl.tenants_min)),
            where + " tenants_min", 1));
    ASSIGN_OR_RETURN(
        tmpl.tenants_max,
        ParseManifestInt(
            element.Attr("tenants_max", std::to_string(tmpl.tenants_min)),
            where + " tenants_max", 1));
    if (tmpl.tenants_max < tmpl.tenants_min) {
      return InvalidArgumentError(where + ": tenants_max < tenants_min");
    }
  }
  ASSIGN_OR_RETURN(
      tmpl.dwell_s,
      ParseManifestSeconds(
          element.Attr("dwell_s", FormatNumberCompact(tmpl.dwell_s)),
          where + " dwell_s"));
  ASSIGN_OR_RETURN(
      tmpl.spread_m,
      ParseManifestNumber(
          element.Attr("spread_m", FormatNumberCompact(tmpl.spread_m)),
          where + " spread_m"));
  if (tmpl.dwell_s < 0 || tmpl.spread_m < 0) {
    return InvalidArgumentError(where +
                                ": dwell_s and spread_m must be >= 0");
  }
  ASSIGN_OR_RETURN(
      tmpl.annealing,
      ParseManifestInt(
          element.Attr("annealing", std::to_string(tmpl.annealing)),
          where + " annealing", 1));
  ASSIGN_OR_RETURN(
      tmpl.memory_mb,
      ParseManifestNumber(
          element.Attr("memory_mb", FormatNumberCompact(tmpl.memory_mb)),
          where + " memory_mb"));
  if (tmpl.memory_mb < 0) {
    return InvalidArgumentError(where + ": negative memory_mb");
  }
  ASSIGN_OR_RETURN(
      tmpl.profile,
      LinkProfileFromName(element.Attr(
          "profile", LinkProfileName(kTemplateDefaults.profile))));
  ASSIGN_OR_RETURN(tmpl.tolerate_rejection,
                   ParseManifestBool(element.Attr("tolerate_rejection",
                                                  "false"),
                                     where + " tolerate_rejection"));
  ASSIGN_OR_RETURN(tmpl.expect_fail,
                   ParseManifestBool(element.Attr("expect_fail", "false"),
                                     where + " expect_fail"));

  bool have_crash_loop = false;
  for (const auto& child : element.children) {
    if (child->name == NetFaultVocabulary().element) {
      ASSIGN_OR_RETURN(JitteredWindow w,
                       ParseFaultElement(*child, NetFaultVocabulary(),
                                         /*sensor=*/false));
      tmpl.net_windows.push_back(w);
    } else if (child->name == SensorFaultVocabulary().element) {
      ASSIGN_OR_RETURN(JitteredWindow w,
                       ParseFaultElement(*child, SensorFaultVocabulary(),
                                         /*sensor=*/true));
      tmpl.sensor_windows.push_back(w);
    } else if (child->name == "crash_loop") {
      if (have_crash_loop) {
        return InvalidArgumentError(where +
                                    ": more than one <crash_loop> element");
      }
      have_crash_loop = true;
      ASSIGN_OR_RETURN(tmpl.crash_loop, ParseCrashLoop(*child));
    } else if (child->name == "crash") {
      if (tmpl.crash.enabled()) {
        return InvalidArgumentError(where +
                                    ": more than one <crash> element");
      }
      ASSIGN_OR_RETURN(tmpl.crash, ParseCrash(*child));
    } else if (child->name == "assert") {
      RETURN_IF_ERROR(CheckNoText(*child));
      RETURN_IF_ERROR(CheckAttributes(*child, {"expr"}));
      if (child->Attr("expr").empty()) {
        return InvalidArgumentError(where +
                                    ": <assert> missing expr attribute");
      }
      ASSIGN_OR_RETURN(AssertionSpec assertion,
                       ParseAssertion(child->Attr("expr")));
      tmpl.assertions.push_back(std::move(assertion));
    } else {
      return InvalidArgumentError(where + ": unknown element <" +
                                  child->name + ">");
    }
  }
  return tmpl;
}

StatusOr<CampaignSpec> ParseCampaignElement(const XmlElement& root) {
  if (root.name != "campaign") {
    return InvalidArgumentError("manifest root must be <campaign>, got <" +
                                root.name + ">");
  }
  RETURN_IF_ERROR(CheckNoText(root));
  RETURN_IF_ERROR(CheckAttributes(root, {"name", "seed"}));

  CampaignSpec campaign;
  campaign.name = root.Attr("name");
  // Every scenario seed derives from this one, so it is read as an exact
  // integer: a double would silently round seeds above 2^53.
  const std::string seed = root.Attr("seed", "1");
  const char* seed_end = seed.data() + seed.size();
  auto [seed_ptr, seed_error] =
      std::from_chars(seed.data(), seed_end, campaign.seed);
  if (seed_error != std::errc() || seed_ptr != seed_end) {
    return InvalidArgumentError("<campaign> seed: must be a non-negative "
                                "integer below 2^64");
  }

  for (const auto& child : root.children) {
    if (child->name != "scenario") {
      return InvalidArgumentError("<campaign>: unknown element <" +
                                  child->name + ">");
    }
    ASSIGN_OR_RETURN(ScenarioTemplate tmpl, ParseScenarioElement(*child));
    campaign.templates.push_back(std::move(tmpl));
  }
  return campaign;
}

// --- Canonical dump --------------------------------------------------------

void EmitIntUnlessDefault(XmlElement& element, const std::string& attr,
                          int value, int fallback) {
  if (value != fallback) {
    element.attributes[attr] = std::to_string(value);
  }
}

std::unique_ptr<XmlElement> DumpFaultWindow(const JitteredWindow& jittered,
                                            const FaultVocabulary& vocab) {
  // Windows in a template have already passed load/build validation, so
  // serialization cannot fail; the fallback keeps the dumper total.
  auto element_or = FaultWindowToXml(jittered.window, vocab);
  std::unique_ptr<XmlElement> element;
  if (element_or.ok()) {
    element = std::move(*element_or);
  } else {
    element = std::make_unique<XmlElement>();
    element->name = vocab.element;
    element->attributes["invalid"] = element_or.status().message();
  }
  if (jittered.start_jitter_s > 0) {
    element->attributes[kJitterAttr] =
        FormatNumberCompact(jittered.start_jitter_s);
  }
  return element;
}

std::unique_ptr<XmlElement> DumpScenario(const ScenarioTemplate& tmpl) {
  auto element = std::make_unique<XmlElement>();
  element->name = "scenario";
  element->attributes["name"] = tmpl.name;
  EmitIntUnlessDefault(*element, "repeat", tmpl.repeat,
                       kTemplateDefaults.repeat);
  if (tmpl.tenants_min == tmpl.tenants_max) {
    EmitIntUnlessDefault(*element, "tenants", tmpl.tenants_min,
                         kTemplateDefaults.tenants_min);
  } else {
    element->attributes["tenants_min"] = std::to_string(tmpl.tenants_min);
    element->attributes["tenants_max"] = std::to_string(tmpl.tenants_max);
  }
  EmitNumberUnlessDefault(*element, "dwell_s", tmpl.dwell_s,
                          kTemplateDefaults.dwell_s);
  EmitNumberUnlessDefault(*element, "spread_m", tmpl.spread_m,
                          kTemplateDefaults.spread_m);
  EmitIntUnlessDefault(*element, "annealing", tmpl.annealing,
                       kTemplateDefaults.annealing);
  EmitNumberUnlessDefault(*element, "memory_mb", tmpl.memory_mb,
                          kTemplateDefaults.memory_mb);
  if (tmpl.profile != kTemplateDefaults.profile) {
    element->attributes["profile"] = LinkProfileName(tmpl.profile);
  }
  if (tmpl.tolerate_rejection) {
    element->attributes["tolerate_rejection"] = "true";
  }
  if (tmpl.expect_fail) {
    element->attributes["expect_fail"] = "true";
  }

  for (const JitteredWindow& w : tmpl.net_windows) {
    element->children.push_back(DumpFaultWindow(w, NetFaultVocabulary()));
  }
  for (const JitteredWindow& w : tmpl.sensor_windows) {
    element->children.push_back(DumpFaultWindow(w, SensorFaultVocabulary()));
  }
  if (tmpl.crash_loop.enabled()) {
    auto crash = std::make_unique<XmlElement>();
    crash->name = "crash_loop";
    crash->attributes["count"] = std::to_string(tmpl.crash_loop.count);
    EmitNumberUnlessDefault(*crash, "start_s", tmpl.crash_loop.start_s,
                            kCrashLoopDefaults.start_s);
    EmitNumberUnlessDefault(*crash, "period_s", tmpl.crash_loop.period_s,
                            kCrashLoopDefaults.period_s);
    EmitIntUnlessDefault(*crash, "max_restarts",
                         tmpl.crash_loop.max_restarts,
                         kCrashLoopDefaults.max_restarts);
    element->children.push_back(std::move(crash));
  }
  if (tmpl.crash.enabled()) {
    auto crash = std::make_unique<XmlElement>();
    crash->name = "crash";
    std::string at_s;
    for (double at : tmpl.crash.at_s) {
      if (!at_s.empty()) {
        at_s += ',';
      }
      at_s += FormatNumberCompact(at);
    }
    crash->attributes["at_s"] = at_s;
    EmitNumberUnlessDefault(*crash, "checkpoint_s", tmpl.crash.checkpoint_s,
                            kCrashDefaults.checkpoint_s);
    if (tmpl.crash.phase_checkpoints != kCrashDefaults.phase_checkpoints) {
      crash->attributes["phase_checkpoints"] =
          tmpl.crash.phase_checkpoints ? "true" : "false";
    }
    EmitNumberUnlessDefault(*crash, kJitterAttr, tmpl.crash.jitter_s,
                            kCrashDefaults.jitter_s);
    EmitIntUnlessDefault(*crash, "max_restores", tmpl.crash.max_restores,
                         kCrashDefaults.max_restores);
    element->children.push_back(std::move(crash));
  }
  for (const AssertionSpec& assertion : tmpl.assertions) {
    auto child = std::make_unique<XmlElement>();
    child->name = "assert";
    child->attributes["expr"] = assertion.ToExpr();
    element->children.push_back(std::move(child));
  }
  return element;
}

}  // namespace

const FaultVocabulary& NetFaultVocabulary() {
  static const FaultVocabulary* vocab = new FaultVocabulary{
      "net_fault",
      {"outage", "burst_loss", "latency"},
      {"forward", "reverse"},
      "dir",
      "both"};
  return *vocab;
}

const FaultVocabulary& SensorFaultVocabulary() {
  static const FaultVocabulary* vocab = new FaultVocabulary{
      "sensor_fault",
      {"dropout", "stuck", "bias_drift", "noise_inflation", "gps_jump",
       "baro_spike", "battery_sag"},
      {"gps", "imu", "baro", "mag", "battery"},
      "channel",
      "all"};
  return *vocab;
}

StatusOr<CampaignSpec> ParseCampaignManifest(const std::string& text) {
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
    return InvalidArgumentError("empty campaign manifest");
  }
  ASSIGN_OR_RETURN(auto root, ParseXml(text));
  return ParseCampaignElement(*root);
}

std::string DumpCampaignManifest(const CampaignSpec& campaign) {
  XmlElement root;
  root.name = "campaign";
  if (!campaign.name.empty()) {
    root.attributes["name"] = campaign.name;
  }
  if (campaign.seed != 1) {
    root.attributes["seed"] = std::to_string(campaign.seed);
  }
  for (const ScenarioTemplate& tmpl : campaign.templates) {
    root.children.push_back(DumpScenario(tmpl));
  }
  return root.Dump();
}

}  // namespace androne
