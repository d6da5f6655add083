#include "src/util/xml.h"

#include <cctype>
#include <utility>

namespace androne {

std::string XmlElement::Attr(const std::string& key,
                             std::string fallback) const {
  auto it = attributes.find(key);
  return it == attributes.end() ? fallback : it->second;
}

const XmlElement* XmlElement::FirstChild(const std::string& tag) const {
  for (const auto& child : children) {
    if (child->name == tag) {
      return child.get();
    }
  }
  return nullptr;
}

std::vector<const XmlElement*> XmlElement::Children(
    const std::string& tag) const {
  std::vector<const XmlElement*> out;
  for (const auto& child : children) {
    if (child->name == tag) {
      out.push_back(child.get());
    }
  }
  return out;
}

namespace {

std::string EscapeXml(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

class XmlParser {
 public:
  explicit XmlParser(const std::string& text) : text_(text) {}

  StatusOr<std::unique_ptr<XmlElement>> Parse() {
    SkipMisc();
    auto root = std::make_unique<XmlElement>();
    RETURN_IF_ERROR(ParseElement(*root, 0));
    SkipMisc();
    if (pos_ != text_.size()) {
      return Status(StatusCode::kInvalidArgument,
                    "XML: trailing content after root element");
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return InvalidArgumentError("XML parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  // Skips whitespace, comments, and the <?xml ...?> declaration.
  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (text_.compare(pos_, 4, "<!--") == 0) {
        size_t end = text_.find("-->", pos_ + 4);
        pos_ = (end == std::string::npos) ? text_.size() : end + 3;
        continue;
      }
      if (text_.compare(pos_, 2, "<?") == 0) {
        size_t end = text_.find("?>", pos_ + 2);
        pos_ = (end == std::string::npos) ? text_.size() : end + 2;
        continue;
      }
      return;
    }
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
           c == '_' || c == '.' || c == ':';
  }

  Status ParseName(std::string& out) {
    size_t start = pos_;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected name");
    }
    out = text_.substr(start, pos_ - start);
    return OkStatus();
  }

  Status DecodeEntities(const std::string& in, std::string& out) const {
    out.clear();
    for (size_t i = 0; i < in.size();) {
      if (in[i] != '&') {
        out += in[i++];
        continue;
      }
      size_t semi = in.find(';', i);
      if (semi == std::string::npos) {
        return InvalidArgumentError("XML: unterminated entity");
      }
      std::string ent = in.substr(i + 1, semi - i - 1);
      if (ent == "lt") {
        out += '<';
      } else if (ent == "gt") {
        out += '>';
      } else if (ent == "amp") {
        out += '&';
      } else if (ent == "quot") {
        out += '"';
      } else if (ent == "apos") {
        out += '\'';
      } else {
        return InvalidArgumentError("XML: unknown entity &" + ent + ";");
      }
      i = semi + 1;
    }
    return OkStatus();
  }

  Status ParseAttributes(XmlElement& el) {
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Error("unterminated tag");
      }
      char c = text_[pos_];
      if (c == '>' || c == '/') {
        return OkStatus();
      }
      std::string name;
      RETURN_IF_ERROR(ParseName(name));
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '=') {
        return Error("expected '=' after attribute name");
      }
      ++pos_;
      SkipWhitespace();
      if (pos_ >= text_.size() || (text_[pos_] != '"' && text_[pos_] != '\'')) {
        return Error("expected quoted attribute value");
      }
      char quote = text_[pos_++];
      size_t end = text_.find(quote, pos_);
      if (end == std::string::npos) {
        return Error("unterminated attribute value");
      }
      std::string raw = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
      std::string decoded;
      RETURN_IF_ERROR(DecodeEntities(raw, decoded));
      // XML 1.0 allows an attribute once per element.
      if (!el.attributes.emplace(name, std::move(decoded)).second) {
        return Error("duplicate attribute \"" + name + "\"");
      }
    }
  }

  Status ParseElement(XmlElement& el, int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting too deep");
    }
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return Error("expected '<'");
    }
    ++pos_;
    RETURN_IF_ERROR(ParseName(el.name));
    RETURN_IF_ERROR(ParseAttributes(el));
    if (text_.compare(pos_, 2, "/>") == 0) {
      pos_ += 2;
      return OkStatus();
    }
    if (text_[pos_] != '>') {
      return Error("expected '>'");
    }
    ++pos_;
    // Content loop: text, child elements, comments, until </name>.
    std::string raw_text;
    for (;;) {
      if (pos_ >= text_.size()) {
        return Error("unterminated element <" + el.name + ">");
      }
      if (text_[pos_] == '<') {
        if (text_.compare(pos_, 4, "<!--") == 0) {
          size_t end = text_.find("-->", pos_ + 4);
          if (end == std::string::npos) {
            return Error("unterminated comment");
          }
          pos_ = end + 3;
          continue;
        }
        if (text_.compare(pos_, 2, "</") == 0) {
          pos_ += 2;
          std::string close;
          RETURN_IF_ERROR(ParseName(close));
          if (close != el.name) {
            return Error("mismatched close tag </" + close + "> for <" +
                         el.name + ">");
          }
          SkipWhitespace();
          if (pos_ >= text_.size() || text_[pos_] != '>') {
            return Error("expected '>' in close tag");
          }
          ++pos_;
          RETURN_IF_ERROR(DecodeEntities(raw_text, el.text));
          // Trim surrounding whitespace from text content.
          size_t b = el.text.find_first_not_of(" \t\r\n");
          size_t e = el.text.find_last_not_of(" \t\r\n");
          el.text = (b == std::string::npos) ? "" : el.text.substr(b, e - b + 1);
          return OkStatus();
        }
        auto child = std::make_unique<XmlElement>();
        RETURN_IF_ERROR(ParseElement(*child, depth + 1));
        el.children.push_back(std::move(child));
      } else {
        raw_text += text_[pos_++];
      }
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string XmlElement::Dump(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + "<" + name;
  for (const auto& [key, value] : attributes) {
    out += " " + key + "=\"" + EscapeXml(value) + "\"";
  }
  if (children.empty() && text.empty()) {
    out += "/>\n";
    return out;
  }
  out += ">";
  if (!children.empty()) {
    out += "\n";
    for (const auto& child : children) {
      out += child->Dump(indent + 1);
    }
    if (!text.empty()) {
      out += pad + "  " + EscapeXml(text) + "\n";
    }
    out += pad + "</" + name + ">\n";
  } else {
    out += EscapeXml(text) + "</" + name + ">\n";
  }
  return out;
}

StatusOr<std::unique_ptr<XmlElement>> ParseXml(const std::string& text) {
  return XmlParser(text).Parse();
}

}  // namespace androne
