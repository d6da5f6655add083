// Campaign manifest loading and dumping (DESIGN.md §12). One declarative
// document composes the whole campaign: mission shape, tenant mix sweep,
// network/sensor fault plans with jitter, link profile, memory budget,
// crash-loop chaos, crash/recovery schedules (the <crash> fault family,
// DESIGN.md §13), and expected-outcome assertions. Manifests are written in
// the repo's XML subset, the format of app manifests (§5).
//
// Loading is strictly validating and never aborts: unknown elements,
// unknown attributes, misspelled kind/scope names, non-numeric
// fields, inverted/negative windows, pinned-channel conflicts, and
// malformed assertion expressions all come back as descriptive Status
// errors naming the offending construct.
//
// DumpCampaignManifest emits the canonical XML form: attributes at their
// defaults are omitted, numbers use FormatNumberCompact, attribute order is
// alphabetical (XmlElement::Dump), and assertions are re-spelled
// canonically — so dump(parse(dump(parse(text)))) == dump(parse(text))
// byte-for-byte, the golden round-trip contract. Each element's attributes
// are listed once, in a VisitAttrs walk that drives both directions
// (src/util/xml_attrs.h).
#ifndef SRC_SCENARIO_MANIFEST_H_
#define SRC_SCENARIO_MANIFEST_H_

#include <string>

#include "src/scenario/generator.h"
#include "src/util/status.h"

namespace androne {

// Parses an XML campaign manifest.
StatusOr<CampaignSpec> ParseCampaignManifest(const std::string& text);

// Canonical XML serialization (see the round-trip contract above).
std::string DumpCampaignManifest(const CampaignSpec& campaign);

}  // namespace androne

#endif  // SRC_SCENARIO_MANIFEST_H_
