// Seeded mutation test for the two manifest codecs a tenant or an operator
// hands the system as text: the campaign manifest (DESIGN.md §12) and the
// tenant mix (§16). Every mutation must come back as an error Status, or as
// a spec whose canonical dump is a dump ∘ parse fixed point and, for a small
// campaign, whose expansion returns a Status or stays under the scenario
// cap. Run on the ASan/UBSan build, this is also "never crash, never UB".
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/ctrl/tenant_mix.h"
#include "src/scenario/generator.h"
#include "src/scenario/manifest.h"
#include "src/util/rng.h"

namespace androne {
namespace {

std::string ReadSource(const std::string& path) {
  std::ifstream in(std::string(ANDRONE_SOURCE_DIR) + "/" + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// A mix that sets every attribute away from its default.
std::string FullMix() {
  TenantMixSpec mix;
  mix.name = "full";
  SessionClass cls;
  cls.name = "every";
  cls.weight = 1.5;
  cls.waypoints = 7;
  cls.dwell_s = 2.25;
  cls.max_dollars = 3.5;
  cls.spread_m = 0;
  cls.processes = 2;
  cls.cancel_rate = 0.125;
  cls.crash_rate = 1;
  cls.giveup_rate = 0.5;
  mix.classes.push_back(cls);
  mix.slos.push_back(*ParseAssertion("latency.admit.p50 <= 3"));
  return DumpTenantMix(mix);
}

struct Seed {
  std::string text;
  bool campaign;  // Otherwise a tenant mix.
};

// [begin, end) of every attribute value (the text between the quotes).
std::vector<std::pair<size_t, size_t>> ValueSpans(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t at = text.find("=\""); at != std::string::npos;
       at = text.find("=\"", at + 2)) {
    const size_t end = text.find('"', at + 2);
    if (end == std::string::npos) {
      break;
    }
    spans.emplace_back(at + 2, end);
  }
  return spans;
}

// [begin, end) of every line.
std::vector<std::pair<size_t, size_t>> Lines(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> lines;
  for (size_t at = 0; at < text.size();) {
    const size_t nl = text.find('\n', at);
    const size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.emplace_back(at, end);
    at = end;
  }
  return lines;
}

TEST(ManifestFuzzTest, SeededMutationsReturnAStatusOrAFixedPoint) {
  const std::vector<Seed> seeds = {
      {ReadSource("perfbench/builtin_campaign.xml"), true},
      {ReadSource("examples/campaign_smoke.xml"), true},
      {DumpTenantMix(BuiltinTenantMix()), false},
      {FullMix(), false},
  };
  for (const Seed& seed : seeds) {
    ASSERT_FALSE(seed.text.empty());
    ASSERT_TRUE(seed.campaign ? ParseCampaignManifest(seed.text).ok()
                              : ParseTenantMix(seed.text).ok())
        << seed.text;
  }
  const std::vector<std::string> edges = {"",    "-0",      "1e308",
                                          "nan", "2.5",     "544.223",
                                          "1000000000"};
  // Expansion builds every scenario, so only small campaigns expand.
  constexpr int64_t kExpandAtMost = 80;

  Rng rng(0x6d616e69);
  auto below = [&rng](size_t n) {
    return static_cast<size_t>(rng.NextU64Below(n));
  };
  constexpr int kMutations = 2048;
  int accepted = 0;
  int expanded = 0;
  for (int i = 0; i < kMutations; ++i) {
    const Seed& seed = seeds[below(seeds.size())];
    std::string text = seed.text;
    switch (below(7)) {
      case 0: {  // One to three bit flips.
        for (size_t f = 1 + below(3); f > 0; --f) {
          text[below(text.size())] ^= static_cast<char>(1 << below(8));
        }
        break;
      }
      case 1:  // Truncation.
        text.resize(below(text.size()));
        break;
      case 2: {  // A prefix of this seed spliced onto a suffix of another.
        const std::string& other = seeds[below(seeds.size())].text;
        text = text.substr(0, below(text.size())) +
               other.substr(below(other.size()));
        break;
      }
      case 3: {  // An attribute value overwritten with an edge value.
        const auto spans = ValueSpans(text);
        const auto [begin, end] = spans[below(spans.size())];
        text.replace(begin, end - begin, edges[below(edges.size())]);
        break;
      }
      case 4: {  // An attribute written twice.
        const auto spans = ValueSpans(text);
        const auto [begin, end] = spans[below(spans.size())];
        const size_t name = text.rfind(' ', begin) + 1;
        text.insert(end + 1, " " + text.substr(name, end + 1 - name));
        break;
      }
      case 5: {  // An element (one line of a canonical dump) deleted.
        const auto lines = Lines(text);
        const auto [begin, end] = lines[below(lines.size())];
        text.erase(begin, end - begin);
        break;
      }
      default: {  // An element duplicated.
        const auto lines = Lines(text);
        const auto [begin, end] = lines[below(lines.size())];
        text.insert(end, text.substr(begin, end - begin));
        break;
      }
    }
    SCOPED_TRACE("mutation " + std::to_string(i) + ":\n" + text);

    if (seed.campaign) {
      StatusOr<CampaignSpec> spec = ParseCampaignManifest(text);
      if (!spec.ok()) {
        continue;
      }
      ++accepted;
      const std::string dumped = DumpCampaignManifest(*spec);
      StatusOr<CampaignSpec> again = ParseCampaignManifest(dumped);
      ASSERT_TRUE(again.ok()) << again.status().message() << "\n" << dumped;
      ASSERT_EQ(DumpCampaignManifest(*again), dumped);
      const int64_t count = spec->instance_count();
      ASSERT_GE(count, 0);
      if (count <= kExpandAtMost) {
        StatusOr<std::vector<ScenarioSpec>> scenarios = ExpandScenarios(*spec);
        if (scenarios.ok()) {
          ++expanded;
          EXPECT_EQ(static_cast<int64_t>(scenarios->size()), count);
        }
      }
    } else {
      StatusOr<TenantMixSpec> mix = ParseTenantMix(text);
      if (!mix.ok()) {
        continue;
      }
      ++accepted;
      const std::string dumped = DumpTenantMix(*mix);
      StatusOr<TenantMixSpec> again = ParseTenantMix(dumped);
      ASSERT_TRUE(again.ok()) << again.status().message() << "\n" << dumped;
      ASSERT_EQ(DumpTenantMix(*again), dumped);
    }
  }
  // Both outcomes are exercised: the mutations are neither all fatal nor
  // all harmless.
  EXPECT_GT(accepted, kMutations / 8);
  EXPECT_LT(accepted, kMutations - kMutations / 8);
  EXPECT_GT(expanded, 0);
}

}  // namespace
}  // namespace androne
