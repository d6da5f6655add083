// Control-plane golden test: serves the builtin tenant mix in model mode at
// a fixed seed and compares ControlPlaneReport::ToText() against the
// checked-in golden at tests/goldens/control_plane_report.txt.
//
// The golden pins the serving path (DESIGN.md §16) end to end: order
// validation and VDR filing, planning, admission, the modelled flight,
// billing, and the report format. A refactor of any of them that should
// keep behaviour must leave these bytes alone; a change that moves them
// must be reviewed and the golden regenerated deliberately.
//
// Regenerate with one command from the repo root after an intentional
// change:
//
//   ANDRONE_REGEN_GOLDENS=1 ./build/tests/control_plane_golden_test
//
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/ctrl/router.h"
#include "src/ctrl/tenant_mix.h"
#include "src/obs/triage.h"

namespace androne {
namespace {

constexpr uint64_t kGoldenSeed = 2026;

std::string GoldenPath() {
  return std::string(ANDRONE_SOURCE_DIR) +
         "/tests/goldens/control_plane_report.txt";
}

// 600 sessions over 4 shards of 8 boards and a 48-order queue each, all
// arriving within 40 s: enough pressure that orders queue, get rejected,
// cancel and fail, and still tens of milliseconds to serve.
std::string ServeGoldenMix() {
  ControlPlaneConfig config;
  config.seed = kGoldenSeed;
  config.shards = 4;
  config.fly_mode = FlyMode::kModel;
  config.load.sessions = 600;
  config.load.arrival_window_s = 40;
  config.admission.boards = 8;
  config.admission.queue_capacity = 48;
  const ControlPlaneReport report =
      ControlPlaneRouter(config).Serve(BuiltinTenantMix());
  EXPECT_EQ(report.settlement_errors, 0);
  EXPECT_EQ(report.admission_violations, 0u);
  return report.ToText();
}

TEST(ControlPlaneGoldenTest, BuiltinMixReportMatchesCheckedInGolden) {
  const std::string actual = ServeGoldenMix();

  if (std::getenv("ANDRONE_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << actual;
    out.close();
    std::printf("regenerated %s (%zu bytes)\n", GoldenPath().c_str(),
                actual.size());
    return;
  }

  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << GoldenPath()
                         << " — regenerate with ANDRONE_REGEN_GOLDENS=1 "
                            "./tests/control_plane_golden_test";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();

  EXPECT_EQ(expected, actual)
      << DescribeDivergence(expected, actual, "golden", "actual")
      << "\nif the serving change is intentional, regenerate with "
         "ANDRONE_REGEN_GOLDENS=1 ./tests/control_plane_golden_test";
}

}  // namespace
}  // namespace androne
