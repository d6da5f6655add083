// Manifest attribute codec (DESIGN.md §12). Each manifest element lists its
// XML attributes once, in a
//
//   template <class A> void VisitAttrs(A& a, T& value);
//
// overload beside its codec, and the two walkers here give that one list
// its two meanings, the way SaveArchive/LoadArchive drive each snapshot
// Visit (src/snapshot/archive.h):
//
//   - AttrReader parses each listed attribute into its member, inside the
//     field kind's bounds, and names the element and the attribute in every
//     error. An absent optional attribute leaves the member initializer in
//     place, so that initializer is the one default. Finish() rejects text
//     content and any attribute the list does not name.
//   - AttrWriter formats each member back. WriteAttrs drops each optional
//     attribute whose text equals a default-constructed value's, so the
//     canonical dump omits defaults without a second copy of them.
//
// Direction-specific work in a walk sits behind `if constexpr
// (A::kReading)`. ReadAttrs and WriteAttrs find VisitAttrs by
// argument-dependent lookup, so each overload is declared in namespace
// androne, not in an anonymous namespace.
#ifndef SRC_UTIL_XML_ATTRS_H_
#define SRC_UTIL_XML_ATTRS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/json.h"
#include "src/util/status.h"
#include "src/util/time.h"
#include "src/util/xml.h"

namespace androne {

// The largest magnitude a manifest time may have, in seconds (~11.6 days):
// far past any mission, and far enough inside SimTime's int64 nanosecond
// range that sums of a few manifest times still convert without overflow.
inline constexpr double kMaxManifestSeconds = 1e6;

// Whether an attribute must appear, and whether the canonical dump always
// spells it.
enum class Presence {
  kOptional,      // May be absent; dumped unless at its default.
  kRequired,      // Must be present and non-empty; always dumped.
  kAlwaysDumped,  // May be absent; always dumped.
};

// The interval a number must lie in; |lo_open| excludes |lo| itself.
struct Bounds {
  double lo;
  double hi;
  bool lo_open = false;
};
inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr Bounds kAnyNumber{-kInf, kInf};
inline constexpr Bounds kNonNegative{0, kInf};
inline constexpr Bounds kPositive{0, kInf, true};
inline constexpr Bounds kUnitInterval{0, 1};

// The value grammar of each field kind. Errors say what is wrong with the
// text; the reader prefixes the element and the attribute.
//
// A finite number spelled by the whole of |text|.
StatusOr<double> ParseNumber(const std::string& text);
// ParseNumber inside |bounds|.
StatusOr<double> ParseBounded(const std::string& text, Bounds bounds);
// A time in seconds: ParseBounded inside |bounds| and kMaxManifestSeconds.
StatusOr<double> ParseSeconds(const std::string& text, Bounds bounds);
StatusOr<bool> ParseBool(const std::string& text);
// An integer in [min, 1e9].
StatusOr<int> ParseInt(const std::string& text, int min);
// A number of |unit|s, within kMaxManifestSeconds, to the nearest
// nanosecond.
StatusOr<SimDuration> ParseTime(const std::string& text, SimDuration unit);
StatusOr<uint64_t> ParseU64(const std::string& text);
// The index of |text| in |names|, plus |first|.
StatusOr<int> ParseChoice(const std::string& text,
                          const std::vector<std::string>& names, int first);

// The field kinds both walkers share. Each is a (parse, format) pair handed
// to the walker's Field; Walker supplies Field, kReading and Fail.
template <class Walker>
class AttrKinds {
 public:
  void Str(const std::string& name, std::string& v,
           Presence presence = Presence::kOptional) {
    self().Field(
        name, v, [](const std::string& t) { return StatusOr<std::string>(t); },
        [](const std::string& s) { return s; }, presence);
  }
  void Bool(const std::string& name, bool& v) {
    self().Field(name, v, ParseBool, [](bool b) -> std::string {
      return b ? "true" : "false";
    });
  }
  // An integer in [min, 1e9]; |v| is an int or a std::optional<int>.
  template <class I>
  void Int(const std::string& name, I& v, int min,
           Presence presence = Presence::kOptional) {
    self().Field(
        name, v, [min](const std::string& t) { return ParseInt(t, min); },
        [](int i) { return std::to_string(i); }, presence);
  }
  void Number(const std::string& name, double& v, Bounds bounds) {
    self().Field(
        name, v,
        [bounds](const std::string& t) { return ParseBounded(t, bounds); },
        FormatNumberCompact);
  }
  void Seconds(const std::string& name, double& v, Bounds bounds) {
    self().Field(
        name, v,
        [bounds](const std::string& t) { return ParseSeconds(t, bounds); },
        FormatNumberCompact);
  }
  // A SimDuration spelled as a number of |unit|s ("start_s", "d0_ms"),
  // rounded to the nearest nanosecond, so any decimal with at most
  // nanosecond resolution dumps back as the value written.
  void Time(const std::string& name, SimDuration& v, SimDuration unit,
            Presence presence = Presence::kOptional) {
    self().Field(
        name, v, [unit](const std::string& t) { return ParseTime(t, unit); },
        [unit](SimDuration d) {
          return FormatNumberCompact(static_cast<double>(d) /
                                     static_cast<double>(unit));
        },
        presence);
  }
  // An exact unsigned 64-bit integer: decimal digits only, never a double.
  void U64(const std::string& name, uint64_t& v) {
    self().Field(name, v, ParseU64,
                 [](uint64_t u) { return std::to_string(u); });
  }
  // names[i] spells the value first + i.
  void Choice(const std::string& name, int& v,
              const std::vector<std::string>& names, int first,
              Presence presence) {
    self().Field(
        name, v,
        [&names, first](const std::string& t) {
          return ParseChoice(t, names, first);
        },
        [&names, first](int i) {
          const size_t at = static_cast<size_t>(i - first);
          return i >= first && at < names.size() ? names[at]
                                                 : std::to_string(i);
        },
        presence);
  }
  // An integer range [lo, hi] in [min, 1e9], spelled name="N" when it holds
  // one value and name_min/name_max otherwise; a missing name_max repeats
  // name_min, and the two spellings may not be mixed.
  void IntRange(const std::string& name, int& lo, int& hi, int min) {
    std::optional<int> one, first, last;
    if constexpr (!Walker::kReading) {
      if (lo == hi) {
        one = lo;
      } else {
        first = lo;
        last = hi;
      }
    }
    Int(name, one, min);
    Int(name + "_min", first, min);
    Int(name + "_max", last, min);
    if constexpr (Walker::kReading) {
      if (one.has_value() && (first.has_value() || last.has_value())) {
        self().Fail(self().where() + ": give either " + name + " or " +
                    name + "_min/" + name + "_max, not both");
      }
      if (one.has_value()) {
        lo = hi = *one;
      } else if (first.has_value() || last.has_value()) {
        lo = first.value_or(lo);
        hi = last.value_or(lo);
      }
      if (hi < lo) {
        self().Fail(self().where() + ": " + name + "_max < " + name + "_min");
      }
    }
  }

 private:
  Walker& self() { return static_cast<Walker&>(*this); }
};

class AttrReader : public AttrKinds<AttrReader> {
 public:
  static constexpr bool kReading = true;

  explicit AttrReader(const XmlElement& element);

  // When the attribute is present, |value| = *parse(text); a parse error
  // becomes "<where> <name>: <message>". |value| is left alone otherwise.
  template <class T, class Parse, class Format>
  void Field(const std::string& name, T& value, Parse&& parse, Format&&,
             Presence presence = Presence::kOptional) {
    const std::string* text = Take(name, presence);
    if (text == nullptr) {
      return;
    }
    auto parsed = parse(*text);
    if (!parsed.ok()) {
      Fail(where_ + " " + name + ": " + parsed.status().message());
      return;
    }
    value = std::move(parsed).value();
  }

  // The element as errors name it: <tag>, or <tag name="..."> when it has a
  // name attribute.
  const std::string& where() const { return where_; }
  // Records an error; the first one wins.
  void Fail(const std::string& message);
  // Text content first, then an attribute the walk did not name, then the
  // first field error.
  Status Finish() const;

 private:
  // The attribute's text, or nullptr when absent (an error if required).
  const std::string* Take(const std::string& name, Presence presence);

  const XmlElement& element_;
  std::string where_;
  std::vector<std::string> known_;
  Status status_;
};

class AttrWriter : public AttrKinds<AttrWriter> {
 public:
  static constexpr bool kReading = false;

  // |defaults|, when set, holds a default-constructed value's attributes:
  // an optional attribute with the same text is left out.
  AttrWriter(XmlElement& element, const XmlElement* defaults)
      : element_(element), defaults_(defaults) {}

  template <class T, class Parse, class Format>
  void Field(const std::string& name, const T& value, Parse&&,
             Format&& format, Presence presence = Presence::kOptional) {
    if constexpr (std::is_same_v<T, std::optional<int>>) {
      if (value.has_value()) {
        Put(name, format(*value), presence);
      }
    } else {
      Put(name, format(value), presence);
    }
  }

 private:
  void Put(const std::string& name, std::string text, Presence presence);

  XmlElement& element_;
  const XmlElement* defaults_;
};

// Parses a leaf element (attributes only: no text, no children) into a
// default-constructed T.
template <class T, class... Args>
StatusOr<T> ReadAttrs(const XmlElement& element, const Args&... args) {
  T value;
  AttrReader reader(element);
  VisitAttrs(reader, value, args...);
  if (!element.children.empty()) {
    reader.Fail(reader.where() + ": unexpected child element <" +
                element.children[0]->name + ">");
  }
  RETURN_IF_ERROR(reader.Finish());
  return value;
}

// |value| as an element named |tag|, optional attributes at their defaults
// left out. The walk only reads |value|.
template <class T, class... Args>
std::unique_ptr<XmlElement> WriteAttrs(std::string tag, const T& value,
                                       const Args&... args) {
  XmlElement defaults;
  T fresh{};
  AttrWriter to_defaults(defaults, nullptr);
  VisitAttrs(to_defaults, fresh, args...);
  auto element = std::make_unique<XmlElement>();
  element->name = std::move(tag);
  AttrWriter writer(*element, &defaults);
  VisitAttrs(writer, const_cast<T&>(value), args...);
  return element;
}

}  // namespace androne

#endif  // SRC_UTIL_XML_ATTRS_H_
