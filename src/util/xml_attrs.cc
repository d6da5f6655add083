#include "src/util/xml_attrs.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace androne {

namespace {

std::string BoundsText(Bounds bounds) {
  return (bounds.lo_open ? "(" : "[") + FormatNumberCompact(bounds.lo) +
         ", " + FormatNumberCompact(bounds.hi) +
         (std::isinf(bounds.hi) ? ")" : "]");
}

}  // namespace

StatusOr<double> ParseNumber(const std::string& text) {
  if (text.empty()) {
    return InvalidArgumentError("empty number");
  }
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return InvalidArgumentError("\"" + text + "\" is not a number");
  }
  if (!std::isfinite(value)) {
    return InvalidArgumentError("\"" + text + "\" is not finite");
  }
  return value;
}

StatusOr<double> ParseBounded(const std::string& text, Bounds bounds) {
  ASSIGN_OR_RETURN(double value, ParseNumber(text));
  if (value < bounds.lo || (bounds.lo_open && value == bounds.lo) ||
      value > bounds.hi) {
    return InvalidArgumentError(text + " out of range " + BoundsText(bounds));
  }
  return value;
}

StatusOr<double> ParseSeconds(const std::string& text, Bounds bounds) {
  bounds.lo = std::max(bounds.lo, -kMaxManifestSeconds);
  bounds.hi = std::min(bounds.hi, kMaxManifestSeconds);
  return ParseBounded(text, bounds);
}

StatusOr<bool> ParseBool(const std::string& text) {
  if (text == "true" || text == "false") {
    return text == "true";
  }
  return InvalidArgumentError("\"" + text +
                              "\" is not a boolean (expected true or false)");
}

StatusOr<int> ParseInt(const std::string& text, int min) {
  ASSIGN_OR_RETURN(double value, ParseBounded(text, {double(min), 1e9}));
  if (std::floor(value) != value) {
    return InvalidArgumentError("\"" + text + "\" is not an integer");
  }
  return static_cast<int>(value);
}

StatusOr<SimDuration> ParseTime(const std::string& text, SimDuration unit) {
  const double max = kMaxManifestSeconds * 1e9 / static_cast<double>(unit);
  ASSIGN_OR_RETURN(double value, ParseBounded(text, {-max, max}));
  return static_cast<SimDuration>(
      std::llround(value * static_cast<double>(unit)));
}

StatusOr<uint64_t> ParseU64(const std::string& text) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || ptr != end) {
    return InvalidArgumentError("must be a non-negative integer below 2^64");
  }
  return value;
}

StatusOr<int> ParseChoice(const std::string& text,
                          const std::vector<std::string>& names, int first) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == text) {
      return first + static_cast<int>(i);
    }
  }
  std::string known;
  for (const std::string& name : names) {
    known += known.empty() ? name : ", " + name;
  }
  return InvalidArgumentError("unknown name \"" + text +
                              "\" (expected one of: " + known + ")");
}

AttrReader::AttrReader(const XmlElement& element)
    : element_(element), where_("<" + element.name) {
  const std::string name = element.Attr("name");
  if (!name.empty()) {
    where_ += " name=\"" + name + "\"";
  }
  where_ += ">";
}

void AttrReader::Fail(const std::string& message) {
  if (status_.ok()) {
    status_ = InvalidArgumentError(message);
  }
}

const std::string* AttrReader::Take(const std::string& name,
                                    Presence presence) {
  known_.push_back(name);
  auto it = element_.attributes.find(name);
  if (it == element_.attributes.end() ||
      (presence == Presence::kRequired && it->second.empty())) {
    if (presence == Presence::kRequired) {
      Fail(where_ + ": missing " + name + " attribute");
    }
    return nullptr;
  }
  return &it->second;
}

Status AttrReader::Finish() const {
  if (element_.text.find_first_not_of(" \t\n\r") != std::string::npos) {
    return InvalidArgumentError(where_ + ": unexpected text content");
  }
  for (const auto& [key, value] : element_.attributes) {
    (void)value;
    if (std::find(known_.begin(), known_.end(), key) == known_.end()) {
      return InvalidArgumentError(where_ + ": unknown attribute \"" + key +
                                  "\"");
    }
  }
  return status_;
}

void AttrWriter::Put(const std::string& name, std::string text,
                     Presence presence) {
  if (presence == Presence::kOptional && defaults_ != nullptr) {
    auto it = defaults_->attributes.find(name);
    if (it != defaults_->attributes.end() && it->second == text) {
      return;
    }
  }
  element_.attributes[name] = std::move(text);
}

}  // namespace androne
