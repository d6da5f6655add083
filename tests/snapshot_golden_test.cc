// Snapshot byte-identity golden: pins FNV-1a digests of four fixed-seed
// snapshot blobs against tests/goldens/snapshot_digests.txt —
//   booted_system        AnDroneSystem::SaveState + timer table after boot
//   midflight_system     the same system 15 sim-s into its mission
//   fleet_template_body  a fleet-world template blob after its header
//   fleet_checkpoint_body the last phase-boundary checkpoint after its header
// Any change to what a component serializes, or in which order, shows up
// here. Headers are left out: they carry the config fingerprint, which is
// identity, not state.
//
// Regenerate with one command from the repo root after an intentional
// layout change:
//
//   ANDRONE_REGEN_GOLDENS=1 ./build/tests/snapshot_golden_test
//
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "src/exec/fleet_world.h"
#include "src/exec/world_template.h"
#include "src/snapshot/checkpoint.h"
#include "src/util/bytes.h"
#include "tests/snapshot_fixtures.h"

namespace androne {
namespace {

using namespace snapshot_fixtures;

std::string GoldenPath() {
  return std::string(ANDRONE_SOURCE_DIR) +
         "/tests/goldens/snapshot_digests.txt";
}

std::string DigestLine(const std::string& name, const std::string& blob) {
  char line[128];
  std::snprintf(line, sizeof(line), "%s 0x%016" PRIx64 " %zu\n", name.c_str(),
                Fnv1a64(blob.data(), blob.size()), blob.size());
  return line;
}

std::string CurrentDigests() {
  std::string out =
      "# name fnv1a64 bytes — regenerate with ANDRONE_REGEN_GOLDENS=1\n";

  TestSystem ts;
  EXPECT_TRUE(BootSystem(ts).ok());
  out += DigestLine("booted_system", SaveSystemBlob(*ts.system));
  EXPECT_TRUE(FlyMidway(ts).ok());
  out += DigestLine("midflight_system", SaveSystemBlob(*ts.system));

  const FleetWorldConfig base = WorldConfig();
  WorldTemplateCache cache;
  CheckpointStore store;
  FleetWorldConfig config = base;
  config.templates = &cache;
  config.checkpoint_sink = &store;
  WorldResult result = RunFleetWorld(config, WorldCtx());
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.infra_failure);

  bool builder = false;
  std::shared_ptr<const WorldTemplate> tpl =
      cache.Acquire(TemplateFingerprint(base), &builder);
  EXPECT_FALSE(builder) << "no template under the expected cache key";
  if (builder) {
    cache.AbandonBuild(TemplateFingerprint(base));
  }
  if (tpl != nullptr) {
    out += DigestLine("fleet_template_body", tpl->blob.substr(kHeaderBytes));
  }
  StatusOr<std::string> checkpoint = store.Latest();
  EXPECT_TRUE(checkpoint.ok());
  if (checkpoint.ok()) {
    out += DigestLine("fleet_checkpoint_body",
                      checkpoint->substr(kHeaderBytes));
  }
  return out;
}

TEST(SnapshotGoldenTest, BlobsMatchCheckedInDigests) {
  const std::string actual = CurrentDigests();

  if (std::getenv("ANDRONE_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << actual;
    out.close();
    std::printf("regenerated %s\n%s", GoldenPath().c_str(), actual.c_str());
    return;
  }

  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << GoldenPath()
      << " — regenerate with ANDRONE_REGEN_GOLDENS=1 "
         "./tests/snapshot_golden_test";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "snapshot bytes changed; if the layout change is intentional, "
         "regenerate with ANDRONE_REGEN_GOLDENS=1";
}

}  // namespace
}  // namespace androne
