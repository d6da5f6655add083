#include "src/util/fault_plan_io.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/util/json.h"

namespace androne {

namespace {

StatusOr<int> NameToIndex(const std::vector<std::string>& names,
                          const std::string& name, const std::string& what) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      return static_cast<int>(i);
    }
  }
  std::string known;
  for (const std::string& n : names) {
    known += known.empty() ? n : ", " + n;
  }
  return InvalidArgumentError("unknown " + what + " \"" + name +
                              "\" (expected one of: " + known + ")");
}

}  // namespace

StatusOr<double> ParseManifestNumber(const std::string& text,
                                     const std::string& what) {
  if (text.empty()) {
    return InvalidArgumentError(what + ": empty number");
  }
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return InvalidArgumentError(what + ": \"" + text + "\" is not a number");
  }
  if (!std::isfinite(value)) {
    return InvalidArgumentError(what + ": \"" + text + "\" is not finite");
  }
  return value;
}

StatusOr<double> ParseManifestSeconds(const std::string& text,
                                      const std::string& what) {
  ASSIGN_OR_RETURN(double value, ParseManifestNumber(text, what));
  if (std::fabs(value) > kMaxManifestSeconds) {
    return InvalidArgumentError(what + ": " + text + " out of range (max " +
                                FormatNumberCompact(kMaxManifestSeconds) +
                                " s)");
  }
  return value;
}

StatusOr<int> ParseManifestInt(const std::string& text,
                               const std::string& what, int min_value) {
  ASSIGN_OR_RETURN(double value, ParseManifestNumber(text, what));
  if (std::floor(value) != value) {
    return InvalidArgumentError(what + ": \"" + text + "\" is not an integer");
  }
  if (value < min_value || value > 1e9) {
    return InvalidArgumentError(what + ": " + text + " out of range (min " +
                                std::to_string(min_value) + ")");
  }
  return static_cast<int>(value);
}

Status CheckNoText(const XmlElement& element) {
  if (element.text.find_first_not_of(" \t\n\r") != std::string::npos) {
    return InvalidArgumentError("<" + element.name +
                                ">: unexpected text content");
  }
  return OkStatus();
}

Status CheckAttributes(const XmlElement& element,
                       const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : element.attributes) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      return InvalidArgumentError("<" + element.name +
                                  ">: unknown attribute \"" + key + "\"");
    }
  }
  return OkStatus();
}

void EmitNumberUnlessDefault(XmlElement& element, const std::string& attr,
                             double value, double fallback) {
  if (value != fallback) {
    element.attributes[attr] = FormatNumberCompact(value);
  }
}

StatusOr<std::unique_ptr<XmlElement>> FaultWindowToXml(
    const FaultWindowSpec& window, const FaultVocabulary& vocabulary) {
  RETURN_IF_ERROR(FaultSchedule::ValidateWindow(window, vocabulary.max_kind(),
                                                vocabulary.max_scope()));
  auto element = std::make_unique<XmlElement>();
  element->name = vocabulary.element;
  element->attributes["kind"] =
      vocabulary.kinds[static_cast<size_t>(window.kind)];
  element->attributes[vocabulary.scope_attr] =
      window.scope == kFaultScopeAll
          ? vocabulary.all_scope_name
          : vocabulary.scopes[static_cast<size_t>(window.scope)];
  element->attributes["start_s"] =
      FormatNumberCompact(ToSecondsF(window.start));
  element->attributes["dur_s"] =
      FormatNumberCompact(ToSecondsF(window.end - window.start));
  if (window.p0 != 0) {
    element->attributes["p0"] = FormatNumberCompact(window.p0);
  }
  if (window.p1 != 0) {
    element->attributes["p1"] = FormatNumberCompact(window.p1);
  }
  if (window.d0 != 0) {
    element->attributes["d0_ms"] =
        FormatNumberCompact(static_cast<double>(ToMillis(window.d0)));
  }
  return element;
}

StatusOr<FaultWindowSpec> FaultWindowFromXml(
    const XmlElement& element, const FaultVocabulary& vocabulary,
    const std::vector<std::string>& extra_allowed) {
  const std::string where = "<" + element.name + ">";
  std::vector<std::string> allowed = {"kind", vocabulary.scope_attr, "start_s",
                                      "dur_s", "p0", "p1", "d0_ms"};
  allowed.insert(allowed.end(), extra_allowed.begin(), extra_allowed.end());
  RETURN_IF_ERROR(CheckAttributes(element, allowed));

  FaultWindowSpec window;
  const std::string kind = element.Attr("kind");
  if (kind.empty()) {
    return InvalidArgumentError(where + ": missing kind attribute");
  }
  ASSIGN_OR_RETURN(window.kind,
                   NameToIndex(vocabulary.kinds, kind, where + " kind"));

  const std::string scope =
      element.Attr(vocabulary.scope_attr, vocabulary.all_scope_name);
  if (scope == vocabulary.all_scope_name) {
    window.scope = kFaultScopeAll;
  } else {
    ASSIGN_OR_RETURN(
        window.scope,
        NameToIndex(vocabulary.scopes, scope,
                    where + " " + vocabulary.scope_attr));
  }

  ASSIGN_OR_RETURN(double start_s, ParseManifestSeconds(
                                       element.Attr("start_s", "0"),
                                       where + " start_s"));
  ASSIGN_OR_RETURN(double dur_s,
                   ParseManifestSeconds(element.Attr("dur_s", "0"),
                                        where + " dur_s"));
  if (dur_s < 0) {
    return InvalidArgumentError(where + ": negative duration");
  }
  window.start = SecondsF(start_s);
  window.end = SecondsF(start_s + dur_s);
  ASSIGN_OR_RETURN(window.p0,
                   ParseManifestNumber(element.Attr("p0", "0"), where + " p0"));
  ASSIGN_OR_RETURN(window.p1,
                   ParseManifestNumber(element.Attr("p1", "0"), where + " p1"));
  ASSIGN_OR_RETURN(double d0_ms, ParseManifestNumber(element.Attr("d0_ms", "0"),
                                                     where + " d0_ms"));
  if (d0_ms < 0) {
    return InvalidArgumentError(where + ": negative d0_ms");
  }
  if (d0_ms > kMaxManifestSeconds * 1000) {
    return InvalidArgumentError(where + " d0_ms: " + element.Attr("d0_ms") +
                                " out of range (max " +
                                FormatNumberCompact(kMaxManifestSeconds * 1000) +
                                " ms)");
  }
  window.d0 = Millis(static_cast<int64_t>(d0_ms));

  RETURN_IF_ERROR(FaultSchedule::ValidateWindow(window, vocabulary.max_kind(),
                                                vocabulary.max_scope()));
  return window;
}

}  // namespace androne
