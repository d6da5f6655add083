#include <gtest/gtest.h>

#include <tuple>

#include "src/rt/cyclictest.h"
#include "src/rt/disk_queue.h"
#include "src/rt/fluid_resource.h"
#include "src/rt/kernel_model.h"
#include "src/rt/load_profile.h"
#include "src/rt/passmark.h"
#include "src/util/sim_clock.h"

namespace androne {
namespace {

// ---------------------------------------------------------------- Fluid.

TEST(FluidResourceTest, SingleJobRunsAtItsDemand) {
  SimClock clock;
  FluidResource res(&clock, 4.0);
  double finished_at = -1;
  res.Submit(8.0, 2.0, [&] { finished_at = ToSecondsF(clock.now()); });
  clock.RunAll();
  EXPECT_NEAR(finished_at, 4.0, 1e-9);  // 8 units at rate 2.
}

TEST(FluidResourceTest, DemandCappedByCapacity) {
  SimClock clock;
  FluidResource res(&clock, 4.0);
  double finished_at = -1;
  res.Submit(8.0, 100.0, [&] { finished_at = ToSecondsF(clock.now()); });
  clock.RunAll();
  EXPECT_NEAR(finished_at, 2.0, 1e-9);  // Capped at capacity 4.
}

TEST(FluidResourceTest, EqualJobsShareEvenly) {
  SimClock clock;
  FluidResource res(&clock, 4.0);
  std::vector<double> finish(3, -1);
  for (int i = 0; i < 3; ++i) {
    res.Submit(4.0, 4.0,
               [&, i] { finish[static_cast<size_t>(i)] = ToSecondsF(clock.now()); });
  }
  clock.RunAll();
  for (double f : finish) {
    EXPECT_NEAR(f, 3.0, 1e-9);  // Each runs at 4/3.
  }
}

TEST(FluidResourceTest, WaterFillingSatisfiesSmallDemandsFirst) {
  SimClock clock;
  FluidResource res(&clock, 4.0);
  double small_done = -1, big_done = -1;
  // Small job demands 1 (fully satisfiable); big job takes the rest (3).
  res.Submit(2.0, 1.0, [&] { small_done = ToSecondsF(clock.now()); });
  res.Submit(9.0, 10.0, [&] { big_done = ToSecondsF(clock.now()); });
  clock.RunAll();
  EXPECT_NEAR(small_done, 2.0, 1e-9);
  // Big: 3/s for 2s (6 units), then 4/s for the rest (3 units) -> 2.75s.
  EXPECT_NEAR(big_done, 2.75, 1e-9);
}

TEST(FluidResourceTest, LateArrivalSlowsExistingJob) {
  SimClock clock;
  FluidResource res(&clock, 2.0);
  double first_done = -1;
  res.Submit(4.0, 2.0, [&] { first_done = ToSecondsF(clock.now()); });
  clock.ScheduleAt(Seconds(1), [&] {
    res.Submit(10.0, 2.0, [] {});
  });
  clock.RunAll();
  // First job: 2 units in first second, remaining 2 at rate 1 -> done at 3s.
  EXPECT_NEAR(first_done, 3.0, 1e-9);
}

TEST(FluidResourceTest, CancelStopsCallbackAndFreesCapacity) {
  SimClock clock;
  FluidResource res(&clock, 2.0);
  bool cancelled_ran = false;
  double other_done = -1;
  auto id = res.Submit(100.0, 1.0, [&] { cancelled_ran = true; });
  res.Submit(4.0, 2.0, [&] { other_done = ToSecondsF(clock.now()); });
  clock.ScheduleAt(Seconds(1), [&] { res.Cancel(id); });
  clock.RunAll();
  EXPECT_FALSE(cancelled_ran);
  // Other job: rate 1 for 1s, then rate 2 -> 1 + 3/2 = 2.5s.
  EXPECT_NEAR(other_done, 2.5, 1e-9);
}

TEST(FluidResourceTest, ZeroWorkCompletesImmediately) {
  SimClock clock;
  FluidResource res(&clock, 1.0);
  bool done = false;
  res.Submit(0.0, 1.0, [&] { done = true; });
  clock.RunAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(res.active_jobs(), 0u);
}

// ---------------------------------------------------------------- Disk.

TEST(DiskQueueTest, SingleOpTakesServiceTime) {
  SimClock clock;
  DiskQueue disk(&clock, Millis(5));
  SimTime done_at = -1;
  disk.Submit([&] { done_at = clock.now(); });
  clock.RunAll();
  EXPECT_EQ(done_at, Millis(5));
  EXPECT_EQ(disk.completed_ops(), 1u);
}

TEST(DiskQueueTest, OpsSerializeFifo) {
  SimClock clock;
  DiskQueue disk(&clock, Millis(5));
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    disk.Submit([&] { done.push_back(clock.now()); });
  }
  EXPECT_EQ(disk.queue_depth(), 3u);
  clock.RunAll();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], Millis(5));
  EXPECT_EQ(done[1], Millis(10));
  EXPECT_EQ(done[2], Millis(15));
  EXPECT_FALSE(disk.busy());
}

TEST(DiskQueueTest, ServiceScaleStretchesOp) {
  SimClock clock;
  DiskQueue disk(&clock, Millis(10));
  SimTime done_at = -1;
  disk.Submit([&] { done_at = clock.now(); }, 1.5);
  clock.RunAll();
  EXPECT_EQ(done_at, Millis(15));
}

// ---------------------------------------------------------------- Kernel.

TEST(KernelModelTest, RtParamsAreStrictlyBetter) {
  for (const LoadProfile& load :
       {IdleLoad(), PassmarkLoad() + IperfLoad(), StressLoad() + IperfLoad()}) {
    auto p = DeriveLatencyParams(PreemptionModel::kPreempt, load);
    auto rt = DeriveLatencyParams(PreemptionModel::kPreemptRt, load);
    EXPECT_LT(rt.base_us, p.base_us);
    EXPECT_LT(rt.section_occupancy, p.section_occupancy);
    EXPECT_LT(rt.section_mean_us, p.section_mean_us);
    EXPECT_LT(rt.tail_max_us, p.tail_max_us);
  }
}

TEST(KernelModelTest, LoadIncreasesLatencyParams) {
  auto idle = DeriveLatencyParams(PreemptionModel::kPreempt, IdleLoad());
  auto stress = DeriveLatencyParams(PreemptionModel::kPreempt,
                                    StressLoad() + IperfLoad());
  EXPECT_LT(idle.base_us, stress.base_us);
  EXPECT_LT(idle.section_occupancy, stress.section_occupancy);
  EXPECT_LT(idle.section_mean_us, stress.section_mean_us);
  EXPECT_LT(idle.tail_max_us, stress.tail_max_us);
}

TEST(KernelModelTest, SamplerIsDeterministicForSeed) {
  WakeLatencySampler a(PreemptionModel::kPreempt, StressLoad(), 5);
  WakeLatencySampler b(PreemptionModel::kPreempt, StressLoad(), 5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(a.SampleUs(), b.SampleUs());
  }
}

TEST(KernelModelTest, SamplesNeverBelowFloor) {
  WakeLatencySampler s(PreemptionModel::kPreemptRt, IdleLoad(), 7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(s.SampleUs(), 2.0);
  }
}

struct CyclictestScenario {
  const char* name;
  PreemptionModel model;
  int which_load;  // 0 idle, 1 passmark+iperf, 2 stress+iperf.
  double avg_lo, avg_hi;
  double max_hi;
};

// Prints the scenario by name. Without it gtest dumps the struct's raw
// bytes, which include the address of `name`, so the discovered ctest
// names would change from build to build under ASLR.
void PrintTo(const CyclictestScenario& sc, std::ostream* os) {
  *os << sc.name;
}

LoadProfile ScenarioLoad(int which) {
  switch (which) {
    case 0:
      return IdleLoad();
    case 1:
      return IdleLoad() + PassmarkLoad() + IperfLoad();
    default:
      return IdleLoad() + StressLoad() + IperfLoad();
  }
}

class CyclictestBandTest
    : public ::testing::TestWithParam<CyclictestScenario> {};

// Reproduction bands around the paper's Figure 11 numbers, run with 2M
// loops (the bench runs the full 100M).
TEST_P(CyclictestBandTest, MatchesPaperBand) {
  const auto& sc = GetParam();
  CyclictestOptions opts;
  opts.loops = 2'000'000;
  opts.seed = 99;
  CyclictestResult r = RunCyclictest(sc.model, ScenarioLoad(sc.which_load), opts);
  EXPECT_GE(r.histogram.mean(), sc.avg_lo) << sc.name;
  EXPECT_LE(r.histogram.mean(), sc.avg_hi) << sc.name;
  EXPECT_LE(r.histogram.max(), sc.max_hi) << sc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Fig11, CyclictestBandTest,
    ::testing::Values(
        CyclictestScenario{"preempt-idle", PreemptionModel::kPreempt, 0, 10,
                           30, 3000},
        CyclictestScenario{"preempt-passmark", PreemptionModel::kPreempt, 1,
                           25, 80, 25000},
        CyclictestScenario{"preempt-stress", PreemptionModel::kPreempt, 2, 80,
                           300, 30000},
        CyclictestScenario{"rt-idle", PreemptionModel::kPreemptRt, 0, 5, 15,
                           200},
        CyclictestScenario{"rt-passmark", PreemptionModel::kPreemptRt, 1, 8,
                           20, 500},
        CyclictestScenario{"rt-stress", PreemptionModel::kPreemptRt, 2, 10,
                           25, 500}),
    [](const auto& info) { return std::string(info.param.name).replace(
          std::string(info.param.name).find('-'), 1, "_"); });

TEST(CyclictestTest, RtMeetsArdupilotDeadlineUnderStress) {
  CyclictestOptions opts;
  opts.loops = 5'000'000;
  auto r = RunCyclictest(PreemptionModel::kPreemptRt,
                         IdleLoad() + StressLoad() + IperfLoad(), opts);
  EXPECT_EQ(r.missed_fast_loop_deadlines, 0u);
  EXPECT_LT(r.histogram.max(), kArdupilotFastLoopBudgetUs);
}

TEST(CyclictestTest, PreemptOccasionallyMissesDeadlineUnderStress) {
  CyclictestOptions opts;
  opts.loops = 5'000'000;
  auto r = RunCyclictest(PreemptionModel::kPreempt,
                         IdleLoad() + StressLoad() + IperfLoad(), opts);
  EXPECT_GT(r.missed_fast_loop_deadlines, 0u);
  // But rarely: the paper argues PREEMPT is "likely sufficient" too.
  EXPECT_LT(static_cast<double>(r.missed_fast_loop_deadlines) /
                static_cast<double>(r.loops),
            1e-3);
}

// ---------------------------------------------------------------- PassMark.

double Normalized(double t, double stock) { return t / stock; }

TEST(PassmarkTest, SingleVdroneOverheadUnderTwoPercent) {
  PassmarkScores stock = RunPassmark({1, PreemptionModel::kPreempt, true});
  for (PreemptionModel m :
       {PreemptionModel::kPreempt, PreemptionModel::kPreemptRt}) {
    PassmarkScores one = RunPassmark({1, m, false});
    EXPECT_LT(Normalized(one.cpu_seconds, stock.cpu_seconds), 1.08);
    EXPECT_LT(Normalized(one.disk_seconds, stock.disk_seconds), 1.05);
    EXPECT_LT(Normalized(one.memory_seconds, stock.memory_seconds), 1.05);
    EXPECT_GE(Normalized(one.cpu_seconds, stock.cpu_seconds), 1.0);
  }
}

TEST(PassmarkTest, CpuScalesRoughlyLinearly) {
  PassmarkScores stock = RunPassmark({1, PreemptionModel::kPreempt, true});
  PassmarkScores two = RunPassmark({2, PreemptionModel::kPreempt, false});
  PassmarkScores three = RunPassmark({3, PreemptionModel::kPreempt, false});
  EXPECT_NEAR(Normalized(two.cpu_seconds, stock.cpu_seconds), 2.0, 0.15);
  EXPECT_NEAR(Normalized(three.cpu_seconds, stock.cpu_seconds), 3.0, 0.2);
}

TEST(PassmarkTest, DiskAndMemoryScaleSubLinearly) {
  PassmarkScores stock = RunPassmark({1, PreemptionModel::kPreempt, true});
  PassmarkScores three = RunPassmark({3, PreemptionModel::kPreempt, false});
  double disk = Normalized(three.disk_seconds, stock.disk_seconds);
  double mem = Normalized(three.memory_seconds, stock.memory_seconds);
  EXPECT_NEAR(disk, 2.0, 0.25);  // Paper: ~2x.
  EXPECT_NEAR(mem, 1.8, 0.2);    // Paper: ~1.8x.
  EXPECT_LT(disk, 3.0);
  EXPECT_LT(mem, 3.0);
}

TEST(PassmarkTest, RtKernelCostsMoreUnderContention) {
  PassmarkScores stock = RunPassmark({1, PreemptionModel::kPreempt, true});
  PassmarkScores p3 = RunPassmark({3, PreemptionModel::kPreempt, false});
  PassmarkScores rt3 = RunPassmark({3, PreemptionModel::kPreemptRt, false});
  EXPECT_GT(rt3.cpu_seconds, p3.cpu_seconds);
  EXPECT_GT(rt3.disk_seconds, p3.disk_seconds);
  EXPECT_GT(rt3.memory_seconds, p3.memory_seconds);
  // Paper: disk 2.2x, memory 2.3x with PREEMPT_RT at 3 virtual drones.
  EXPECT_NEAR(Normalized(rt3.disk_seconds, stock.disk_seconds), 2.2, 0.25);
  EXPECT_NEAR(Normalized(rt3.memory_seconds, stock.memory_seconds), 2.3, 0.25);
}

class PassmarkMonotoneTest : public ::testing::TestWithParam<
                                 std::tuple<int, PreemptionModel>> {};

// Property: more virtual drones never make any sub-benchmark faster.
TEST_P(PassmarkMonotoneTest, MoreInstancesNeverFaster) {
  auto [n, model] = GetParam();
  if (n < 2) {
    GTEST_SKIP();
  }
  PassmarkScores fewer = RunPassmark({n - 1, model, false});
  PassmarkScores more = RunPassmark({n, model, false});
  EXPECT_GE(more.cpu_seconds, fewer.cpu_seconds - 1e-9);
  EXPECT_GE(more.disk_seconds, fewer.disk_seconds - 1e-9);
  EXPECT_GE(more.memory_seconds, fewer.memory_seconds - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PassmarkMonotoneTest,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(PreemptionModel::kPreempt,
                                         PreemptionModel::kPreemptRt)));

}  // namespace
}  // namespace androne
