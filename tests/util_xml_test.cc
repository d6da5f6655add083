#include "src/util/xml.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "src/util/rng.h"

namespace androne {
namespace {

TEST(XmlTest, ParsesSimpleElement) {
  auto root = ParseXml("<manifest/>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value()->name, "manifest");
  EXPECT_TRUE(root.value()->children.empty());
}

TEST(XmlTest, ParsesAttributes) {
  auto root = ParseXml(R"(<uses-permission name="camera" type='waypoint'/>)");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value()->Attr("name"), "camera");
  EXPECT_EQ(root.value()->Attr("type"), "waypoint");
  EXPECT_EQ(root.value()->Attr("missing", "dflt"), "dflt");
}

TEST(XmlTest, ParsesNestedChildrenAndText) {
  auto root = ParseXml(
      "<manifest>"
      "  <uses-permission name=\"camera\" type=\"waypoint\"/>"
      "  <uses-permission name=\"gps\" type=\"continuous\"/>"
      "  <argument name=\"survey-areas\" type=\"polygon\" required=\"true\"/>"
      "  <label> Survey App </label>"
      "</manifest>");
  ASSERT_TRUE(root.ok());
  const XmlElement& m = *root.value();
  EXPECT_EQ(m.Children("uses-permission").size(), 2u);
  ASSERT_NE(m.FirstChild("argument"), nullptr);
  EXPECT_EQ(m.FirstChild("argument")->Attr("required"), "true");
  ASSERT_NE(m.FirstChild("label"), nullptr);
  EXPECT_EQ(m.FirstChild("label")->text, "Survey App");
  EXPECT_EQ(m.FirstChild("nope"), nullptr);
}

TEST(XmlTest, SkipsDeclarationAndComments) {
  auto root = ParseXml(
      "<?xml version=\"1.0\"?>\n"
      "<!-- AnDrone manifest -->\n"
      "<manifest><!-- inner --><a/></manifest>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value()->children.size(), 1u);
}

TEST(XmlTest, DecodesEntities) {
  auto root = ParseXml("<a v=\"&lt;&amp;&gt;\">x &quot;y&quot; &apos;z&apos;</a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value()->Attr("v"), "<&>");
  EXPECT_EQ(root.value()->text, "x \"y\" 'z'");
}

TEST(XmlTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a></b>").ok());
  EXPECT_FALSE(ParseXml("<a b></a>").ok());
  EXPECT_FALSE(ParseXml("<a b=c/>").ok());
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());
  EXPECT_FALSE(ParseXml("<a>&bogus;</a>").ok());
}

TEST(XmlTest, RejectsDuplicateAttributes) {
  // XML 1.0 allows an attribute once per element; the last one must not
  // silently win.
  auto root = ParseXml(R"(<uses-permission name="camera" name="gps"/>)");
  ASSERT_FALSE(root.ok());
  EXPECT_NE(root.status().message().find("duplicate attribute \"name\""),
            std::string::npos)
      << root.status().message();
  EXPECT_FALSE(ParseXml("<a><b x='1' y='2' x='1'/></a>").ok());
}

TEST(XmlTest, DumpRoundTrips) {
  auto root = ParseXml(
      "<manifest package=\"com.example.survey\">"
      "<uses-permission name=\"camera\" type=\"waypoint\"/>"
      "<argument name=\"area\" type=\"polygon\" required=\"false\"/>"
      "</manifest>");
  ASSERT_TRUE(root.ok());
  auto again = ParseXml(root.value()->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->name, "manifest");
  EXPECT_EQ(again.value()->Attr("package"), "com.example.survey");
  EXPECT_EQ(again.value()->children.size(), 2u);
}

// Property test: randomly generated manifest-like trees survive
// dump -> parse -> dump. Text content is generated without surrounding
// whitespace (the parser trims it by design), but attribute values and text
// deliberately include every escapable character.
std::string RandomXmlName(Rng& rng) {
  static const char* kNames[] = {"manifest", "uses-permission", "argument",
                                 "label",    "service",         "intent"};
  return kNames[rng.NextU64Below(6)];
}

std::string RandomXmlValue(Rng& rng) {
  static const char kAlphabet[] = "abcXYZ019<>&\"'-._";
  std::string out;
  size_t len = rng.NextU64Below(10);
  for (size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng.NextU64Below(sizeof(kAlphabet) - 1)];
  }
  return out;
}

// Words joined by single spaces: internal whitespace survives the
// round-trip, surrounding whitespace would not (ParseXml trims it).
std::string RandomXmlText(Rng& rng) {
  std::string out;
  size_t words = rng.NextU64Below(3);
  for (size_t i = 0; i < words; ++i) {
    if (!out.empty()) {
      out += ' ';
    }
    std::string word = RandomXmlValue(rng);
    out += word.empty() ? "w" : word;
  }
  return out;
}

std::unique_ptr<XmlElement> RandomXmlTree(Rng& rng, int depth) {
  auto el = std::make_unique<XmlElement>();
  el->name = RandomXmlName(rng);
  size_t attrs = rng.NextU64Below(4);
  for (size_t i = 0; i < attrs; ++i) {
    el->attributes["a" + std::to_string(i)] = RandomXmlValue(rng);
  }
  size_t kids = depth >= 3 ? 0 : rng.NextU64Below(4);
  for (size_t i = 0; i < kids; ++i) {
    el->children.push_back(RandomXmlTree(rng, depth + 1));
  }
  el->text = RandomXmlText(rng);
  return el;
}

::testing::AssertionResult SameXml(const XmlElement& a, const XmlElement& b,
                                   const std::string& path) {
  if (a.name != b.name) {
    return ::testing::AssertionFailure()
           << path << ": name " << a.name << " vs " << b.name;
  }
  if (a.attributes != b.attributes) {
    return ::testing::AssertionFailure() << path << ": attributes differ";
  }
  if (a.text != b.text) {
    return ::testing::AssertionFailure()
           << path << ": text \"" << a.text << "\" vs \"" << b.text << "\"";
  }
  if (a.children.size() != b.children.size()) {
    return ::testing::AssertionFailure()
           << path << ": " << a.children.size() << " vs " << b.children.size()
           << " children";
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    auto child = SameXml(*a.children[i], *b.children[i],
                         path + "/" + a.name + "[" + std::to_string(i) + "]");
    if (!child) {
      return child;
    }
  }
  return ::testing::AssertionSuccess();
}

class XmlRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlRoundTripTest, DumpParseDumpIsStable) {
  Rng rng(GetParam());
  std::unique_ptr<XmlElement> tree = RandomXmlTree(rng, 0);
  std::string once = tree->Dump();
  auto parsed = ParseXml(once);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message() << "\n" << once;
  EXPECT_TRUE(SameXml(*tree, *parsed.value(), ""));
  EXPECT_EQ(parsed.value()->Dump(), once);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripTest,
                         ::testing::Range<uint64_t>(1, 33));

}  // namespace
}  // namespace androne
