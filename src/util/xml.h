// A minimal XML subset parser for AnDrone app manifests (paper §5). Supports
// elements, attributes, text content, comments, self-closing tags, and the
// five predefined entities. No namespaces, DTDs, or processing instructions —
// the manifest format doesn't use them. As in XML 1.0, an element may carry
// each attribute once; a repeated one is a parse error.
#ifndef SRC_UTIL_XML_H_
#define SRC_UTIL_XML_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace androne {

struct XmlElement {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::vector<std::unique_ptr<XmlElement>> children;
  std::string text;  // Concatenated text content directly inside this element.

  // Attribute lookup with default.
  std::string Attr(const std::string& key, std::string fallback = "") const;

  // First child element with the given tag name, or nullptr.
  const XmlElement* FirstChild(const std::string& tag) const;

  // All child elements with the given tag name.
  std::vector<const XmlElement*> Children(const std::string& tag) const;

  // Serializes back to XML (pretty, 2-space indent).
  std::string Dump(int indent = 0) const;
};

// Parses one XML document and returns its root element.
StatusOr<std::unique_ptr<XmlElement>> ParseXml(const std::string& text);

}  // namespace androne

#endif  // SRC_UTIL_XML_H_
