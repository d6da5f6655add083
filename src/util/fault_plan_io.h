// Fault-plan serialization to and from scenario manifests. The generic
// FaultWindowSpec carries layer-defined small integers for |kind| and
// |scope|; manifests spell both as names ("outage", "gps_jump", "forward",
// "baro"). A FaultVocabulary supplies the name tables and attribute
// spelling for one layer (the net and sensor chaos layers each publish
// one), and the helpers here translate windows in both directions with
// validating, descriptive errors — never aborts — so a hand-written
// manifest that misspells a kind fails loading, not replay.
#ifndef SRC_UTIL_FAULT_PLAN_IO_H_
#define SRC_UTIL_FAULT_PLAN_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/util/fault_plan.h"
#include "src/util/status.h"
#include "src/util/xml.h"

namespace androne {

// One chaos layer's window-naming scheme. |kinds| and |scopes| are indexed
// by the layer's enum values (kind i prints as kinds[i]); kFaultScopeAll
// prints as |all_scope_name|. |scope_attr| is the manifest attribute the
// scope is spelled in ("dir" for link directions, "channel" for sensors).
struct FaultVocabulary {
  std::string element;  // Manifest element name ("net_fault", "sensor_fault").
  std::vector<std::string> kinds;
  std::vector<std::string> scopes;
  std::string scope_attr;
  std::string all_scope_name;

  int max_kind() const { return static_cast<int>(kinds.size()) - 1; }
  int max_scope() const { return static_cast<int>(scopes.size()) - 1; }
};

// Serializes |window| as a manifest element: times in seconds, the extra
// duration |d0| in milliseconds, and zero-valued optional parameters
// (p0/p1/d0) omitted. The output is canonical — FaultWindowFromXml followed
// by FaultWindowToXml reproduces it byte-for-byte.
StatusOr<std::unique_ptr<XmlElement>> FaultWindowToXml(
    const FaultWindowSpec& window, const FaultVocabulary& vocabulary);

// Parses one manifest element back into a window. Unknown attributes,
// unknown kind/scope names, non-numeric fields, and windows rejected by
// FaultSchedule::ValidateWindow all return descriptive errors. Extra
// attributes in |extra_allowed| are tolerated (the scenario generator rides
// jitter amplitudes on the same elements).
StatusOr<FaultWindowSpec> FaultWindowFromXml(
    const XmlElement& element, const FaultVocabulary& vocabulary,
    const std::vector<std::string>& extra_allowed = {});

// Strict double parsing for manifest attributes: the full string must be a
// finite number. Exposed for the scenario loader's scalar fields.
StatusOr<double> ParseManifestNumber(const std::string& text,
                                     const std::string& what);

// The largest magnitude a manifest time may have, in seconds (~11.6 days):
// far past any mission, and far enough inside SimTime's int64 nanosecond
// range that sums of a few manifest times still convert without overflow.
inline constexpr double kMaxManifestSeconds = 1e6;

// ParseManifestNumber for a time in seconds, rejecting magnitudes above
// kMaxManifestSeconds with an error that names |what|.
StatusOr<double> ParseManifestSeconds(const std::string& text,
                                      const std::string& what);

// ParseManifestNumber for an integer in [min_value, 1e9].
StatusOr<int> ParseManifestInt(const std::string& text,
                               const std::string& what, int min_value);

// Strictness checks shared by the XML manifest loaders: an element may carry
// only whitespace text, and only attributes named in |allowed|. Errors name
// the element.
Status CheckNoText(const XmlElement& element);
Status CheckAttributes(const XmlElement& element,
                       const std::vector<std::string>& allowed);

// Canonical dumps omit defaults: sets |attr| to |value| in compact form
// only when it differs from |fallback|.
void EmitNumberUnlessDefault(XmlElement& element, const std::string& attr,
                             double value, double fallback);

}  // namespace androne

#endif  // SRC_UTIL_FAULT_PLAN_IO_H_
