// Control-plane tests (DESIGN.md §16): the order lifecycle state machine
// (declared-transition table, terminal absorption, exactly-once settlement
// under 64 seeded random event walks), admission-control packing against
// the Figure 12 board budget (exact-fit boundary, one-MB-over rejection,
// release-on-completion re-admission, snapshot byte fixed point), the
// tenant-mix manifest round trip, the deterministic load generator, and an
// end-to-end router sweep whose audit counters must all be zero.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/ctrl/admission.h"
#include "src/ctrl/lifecycle.h"
#include "src/ctrl/load_gen.h"
#include "src/ctrl/router.h"
#include "src/ctrl/tenant_mix.h"
#include "src/snapshot/archive.h"
#include "src/util/rng.h"

namespace androne {
namespace {

// --- Lifecycle state machine ---

TEST(LifecycleTest, HappyPathChargesExactlyOnce) {
  OrderLifecycle order;
  EXPECT_EQ(order.state(), OrderState::kSubmitted);
  ASSERT_TRUE(order.Apply(OrderEvent::kPlanReady).ok());
  ASSERT_TRUE(order.Apply(OrderEvent::kAdmit).ok());
  ASSERT_TRUE(order.Apply(OrderEvent::kLaunch).ok());
  ASSERT_TRUE(order.Apply(OrderEvent::kComplete).ok());
  EXPECT_EQ(order.state(), OrderState::kBilled);
  EXPECT_TRUE(order.terminal());
  EXPECT_EQ(order.settlement(), Settlement::kCharged);
  EXPECT_EQ(order.transitions(), 4);
}

TEST(LifecycleTest, CrashRecoveryArcResumesTheFlight) {
  OrderLifecycle order;
  ASSERT_TRUE(order.Apply(OrderEvent::kPlanReady).ok());
  ASSERT_TRUE(order.Apply(OrderEvent::kQueue).ok());
  ASSERT_TRUE(order.Apply(OrderEvent::kAdmit).ok());
  ASSERT_TRUE(order.Apply(OrderEvent::kLaunch).ok());
  ASSERT_TRUE(order.Apply(OrderEvent::kCrash).ok());
  EXPECT_EQ(order.state(), OrderState::kRecovering);
  ASSERT_TRUE(order.Apply(OrderEvent::kRecover).ok());
  EXPECT_EQ(order.state(), OrderState::kFlying);
  ASSERT_TRUE(order.Apply(OrderEvent::kComplete).ok());
  EXPECT_EQ(order.settlement(), Settlement::kCharged);
}

TEST(LifecycleTest, NonBilledTerminalsRefund) {
  struct Arc {
    std::vector<OrderEvent> events;
    OrderState terminal;
  };
  const Arc arcs[] = {
      {{OrderEvent::kPlanFail}, OrderState::kFailed},
      {{OrderEvent::kPlanReady, OrderEvent::kReject}, OrderState::kRejected},
      {{OrderEvent::kPlanReady, OrderEvent::kQueue, OrderEvent::kReject},
       OrderState::kRejected},
      {{OrderEvent::kCancel}, OrderState::kCancelled},
      {{OrderEvent::kPlanReady, OrderEvent::kAdmit, OrderEvent::kLaunch,
        OrderEvent::kCrash, OrderEvent::kGiveUp},
       OrderState::kFailed},
  };
  for (const Arc& arc : arcs) {
    OrderLifecycle order;
    for (OrderEvent event : arc.events) {
      ASSERT_TRUE(order.Apply(event).ok()) << OrderEventName(event);
    }
    EXPECT_EQ(order.state(), arc.terminal);
    EXPECT_EQ(order.settlement(), Settlement::kRefunded);
  }
}

TEST(LifecycleTest, TerminalStatesDeclareNothing) {
  const OrderState terminals[] = {OrderState::kBilled, OrderState::kRejected,
                                  OrderState::kCancelled, OrderState::kFailed};
  for (OrderState state : terminals) {
    ASSERT_TRUE(IsTerminalOrderState(state));
    for (int e = 0; e < kOrderEventCount; ++e) {
      EXPECT_FALSE(
          DeclaredTransition(state, static_cast<OrderEvent>(e), nullptr))
          << OrderStateName(state) << " declared "
          << OrderEventName(static_cast<OrderEvent>(e));
    }
  }
}

TEST(LifecycleTest, CancelIsLegalInEveryLiveState) {
  for (int s = 0; s < kOrderStateCount; ++s) {
    OrderState state = static_cast<OrderState>(s);
    OrderState to;
    if (IsTerminalOrderState(state)) {
      continue;
    }
    ASSERT_TRUE(DeclaredTransition(state, OrderEvent::kCancel, &to))
        << OrderStateName(state);
    EXPECT_EQ(to, OrderState::kCancelled);
  }
}

// Satellite 2: 64 seeded random event walks. An undeclared transition must
// never land (Apply refuses and leaves the machine untouched), and every
// walk that reaches a terminal state settles exactly once — charged iff
// billed, refunded otherwise — after which the state is absorbing.
TEST(LifecycleTest, RandomWalksNeverLandUndeclaredAndSettleOnce) {
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(SplitMix64(seed + 1));
    OrderLifecycle order;
    int settlements_observed = 0;
    // Random events until terminal; the walk always terminates because
    // kCancel is legal in every live state (and the cap below forces it).
    for (int step = 0; step < 4096 && !order.terminal(); ++step) {
      OrderEvent event =
          step < 4000
              ? static_cast<OrderEvent>(rng.NextU64Below(kOrderEventCount))
              : OrderEvent::kCancel;
      const OrderState before = order.state();
      OrderState declared_to;
      const bool declared =
          DeclaredTransition(before, event, &declared_to);
      const Status status = order.Apply(event);
      ASSERT_EQ(status.ok(), declared)
          << "seed " << seed << ": " << OrderEventName(event) << " in "
          << OrderStateName(before);
      if (status.ok()) {
        ASSERT_EQ(order.state(), declared_to);
        if (order.terminal()) {
          ++settlements_observed;
          ASSERT_EQ(order.settlement(),
                    order.state() == OrderState::kBilled
                        ? Settlement::kCharged
                        : Settlement::kRefunded)
              << "seed " << seed;
        }
      } else {
        ASSERT_EQ(order.state(), before) << "failed Apply mutated the state";
        ASSERT_EQ(order.settlement(),
                  order.terminal() ? order.settlement() : Settlement::kNone);
      }
    }
    ASSERT_TRUE(order.terminal()) << "seed " << seed;
    ASSERT_EQ(settlements_observed, 1) << "seed " << seed;
    // Terminal is absorbing: every further event is refused and the
    // settlement ledger never moves again.
    const OrderState final_state = order.state();
    const Settlement final_settlement = order.settlement();
    for (int e = 0; e < kOrderEventCount; ++e) {
      EXPECT_FALSE(order.Apply(static_cast<OrderEvent>(e)).ok());
      EXPECT_EQ(order.state(), final_state);
      EXPECT_EQ(order.settlement(), final_settlement);
    }
  }
}

// --- Admission control ---

// The paper's Figure 12 arithmetic: an 880 MB board minus the host base
// and the device+flight container overhead leaves room for exactly three
// default virtual drones; the fourth fails harmlessly.
TEST(AdmissionTest, FigureTwelvePacksThreeVdronesPerBoard) {
  AdmissionConfig config;
  config.boards = 1;
  config.queue_capacity = 0;  // Reject outright: no queue to hide in.
  AdmissionController admission(config);
  EXPECT_DOUBLE_EQ(admission.board_budget_mb(), 880.0);
  EXPECT_DOUBLE_EQ(admission.usable_mb(), 880.0 - BoardOverheadMb());

  const double footprint = VdroneFootprintMb();
  for (uint64_t order = 1; order <= 3; ++order) {
    AdmitResult result = admission.Request(order, footprint);
    EXPECT_EQ(result.outcome, AdmitOutcome::kAdmitted) << "order " << order;
    EXPECT_EQ(result.board, 0);
  }
  EXPECT_TRUE(admission.BoardFull(0, footprint));
  AdmitResult fourth = admission.Request(4, footprint);
  EXPECT_EQ(fourth.outcome, AdmitOutcome::kRejected);
  EXPECT_EQ(admission.rejected_total(), 1u);
  EXPECT_EQ(admission.violations(), 0u);
}

// Satellite 3 boundary pair: a footprint that lands exactly on the budget
// admits; one megabyte more can never fit and is rejected immediately.
TEST(AdmissionTest, ExactlyAtBudgetAdmitsOneMbOverRejects) {
  AdmissionConfig config;
  config.boards = 1;
  config.board_budget_mb = BoardOverheadMb() + 200.0;
  config.queue_capacity = 8;
  {
    AdmissionController admission(config);
    EXPECT_DOUBLE_EQ(admission.usable_mb(), 200.0);
    AdmitResult exact = admission.Request(1, 200.0);
    EXPECT_EQ(exact.outcome, AdmitOutcome::kAdmitted);
    EXPECT_DOUBLE_EQ(admission.BoardFreeMb(0), 0.0);
    EXPECT_EQ(admission.violations(), 0u);
  }
  {
    AdmissionController admission(config);
    // One MB over budget: can never fit even an empty board, so it is
    // rejected outright instead of parking in (and forever blocking) the
    // queue.
    AdmitResult over = admission.Request(1, 201.0);
    EXPECT_EQ(over.outcome, AdmitOutcome::kRejected);
    EXPECT_EQ(admission.queue_size(), 0u);
    EXPECT_EQ(admission.violations(), 0u);
  }
}

TEST(AdmissionTest, QueueIsStrictFifoWithNoOvertaking) {
  AdmissionConfig config;
  config.boards = 1;
  config.board_budget_mb = BoardOverheadMb() + 100.0;
  config.queue_capacity = 2;
  AdmissionController admission(config);
  EXPECT_EQ(admission.Request(1, 100.0).outcome, AdmitOutcome::kAdmitted);
  // Head needs 80, which fits nowhere right now; the 10 MB order behind it
  // must wait its turn rather than overtake.
  EXPECT_EQ(admission.Request(2, 80.0).outcome, AdmitOutcome::kQueued);
  EXPECT_EQ(admission.Request(3, 10.0).outcome, AdmitOutcome::kQueued);
  // Queue full: the next order is rejected.
  EXPECT_EQ(admission.Request(4, 10.0).outcome, AdmitOutcome::kRejected);

  admission.Launch(0);
  std::vector<DrainedAdmit> drained = admission.ReleaseBoard(0);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].order, 2u);
  EXPECT_EQ(drained[1].order, 3u);
  EXPECT_DOUBLE_EQ(admission.BoardUsedMb(0), 90.0);
  EXPECT_EQ(admission.violations(), 0u);
}

// Satellite 3: release-on-completion re-admits the queued order.
TEST(AdmissionTest, ReleaseOnCompletionReadmitsQueuedOrder) {
  AdmissionConfig config;
  config.boards = 1;
  config.queue_capacity = 4;
  AdmissionController admission(config);
  const double footprint = VdroneFootprintMb();
  EXPECT_EQ(admission.Request(1, footprint).outcome, AdmitOutcome::kAdmitted);
  EXPECT_EQ(admission.Request(2, footprint).outcome, AdmitOutcome::kAdmitted);
  EXPECT_EQ(admission.Request(3, footprint).outcome, AdmitOutcome::kAdmitted);
  EXPECT_EQ(admission.Request(4, footprint).outcome, AdmitOutcome::kQueued);

  admission.Launch(0);
  EXPECT_FALSE(admission.BoardAccepting(0));
  // While flying, the board accepts nothing and the queue holds.
  EXPECT_EQ(admission.Request(5, footprint).outcome, AdmitOutcome::kQueued);

  std::vector<DrainedAdmit> drained = admission.ReleaseBoard(0);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].order, 4u);
  EXPECT_EQ(drained[1].order, 5u);
  EXPECT_EQ(drained[0].board, 0);
  EXPECT_TRUE(admission.BoardAccepting(0));
  EXPECT_DOUBLE_EQ(admission.BoardUsedMb(0), 2 * footprint);
  EXPECT_EQ(admission.queue_size(), 0u);
  EXPECT_EQ(admission.violations(), 0u);
}

TEST(AdmissionTest, RemoveFreesBoardingFootprintAndDrains) {
  AdmissionConfig config;
  config.boards = 1;
  config.queue_capacity = 4;
  AdmissionController admission(config);
  const double footprint = VdroneFootprintMb();
  admission.Request(1, footprint);
  admission.Request(2, footprint);
  admission.Request(3, footprint);
  ASSERT_EQ(admission.Request(4, footprint).outcome, AdmitOutcome::kQueued);

  // Cancelling a boarding order frees its slot and the queue drains in.
  std::vector<DrainedAdmit> drained = admission.Remove(2);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].order, 4u);
  EXPECT_DOUBLE_EQ(admission.BoardUsedMb(0), 3 * footprint);
  // Removing an unknown order is a harmless no-op.
  EXPECT_TRUE(admission.Remove(99).empty());
  EXPECT_EQ(admission.violations(), 0u);
}

// Satellite 3: the complete accounting state survives a checkpoint
// bit-exactly — save → restore → save is a byte fixed point.
TEST(AdmissionTest, SaveRestoreSaveIsByteFixedPoint) {
  AdmissionConfig config;
  config.boards = 2;
  config.queue_capacity = 4;
  AdmissionController admission(config);
  const double footprint = VdroneFootprintMb();
  for (uint64_t order = 1; order <= 7; ++order) {
    admission.Request(order, footprint);
  }
  admission.Launch(0);
  admission.Request(8, footprint + 0.125);  // A non-integral footprint.

  // The controller arms no timers, so the archives get an idle clock.
  SimClock clock;
  TimerRegistry timers;
  SnapshotWriter first;
  SaveArchive save_first(first, timers, clock);
  ASSERT_TRUE(admission.Visit(save_first).ok());
  ASSERT_FALSE(first.bytes().empty());

  AdmissionController restored(config);
  SnapshotReader reader(first.bytes());
  TimerRearmer rearmer;
  LoadArchive load(reader, rearmer);
  ASSERT_TRUE(restored.Visit(load).ok());
  EXPECT_EQ(reader.remaining(), 0u);

  SnapshotWriter second;
  SaveArchive save_second(second, timers, clock);
  ASSERT_TRUE(restored.Visit(save_second).ok());
  EXPECT_EQ(first.bytes(), second.bytes());

  // The restored controller behaves identically, not just serializes
  // identically: the flying board still refuses and the queue still holds.
  EXPECT_FALSE(restored.BoardAccepting(0));
  EXPECT_EQ(restored.queue_size(), admission.queue_size());
  EXPECT_EQ(restored.admitted_total(), admission.admitted_total());
  EXPECT_DOUBLE_EQ(restored.BoardUsedMb(1), admission.BoardUsedMb(1));
  EXPECT_EQ(restored.violations(), 0u);
}

// --- Tenant-mix manifests ---

TEST(TenantMixTest, BuiltinMixRoundTripsByteStable) {
  const TenantMixSpec mix = BuiltinTenantMix();
  ASSERT_EQ(mix.classes.size(), 3u);
  ASSERT_FALSE(mix.slos.empty());
  const std::string dumped = DumpTenantMix(mix);
  StatusOr<TenantMixSpec> parsed = ParseTenantMix(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(DumpTenantMix(*parsed), dumped);
}

TEST(TenantMixTest, ParsesClassesAndSlos) {
  StatusOr<TenantMixSpec> mix = ParseTenantMix(
      "<tenant_mix name=\"m\">\n"
      "  <class name=\"a\" weight=\"2\" waypoints=\"4\" dwell_s=\"15\"/>\n"
      "  <slo expr=\"latency.plan.p99 &lt;= 50\"/>\n"
      "</tenant_mix>\n");
  ASSERT_TRUE(mix.ok()) << mix.status().message();
  EXPECT_EQ(mix->name, "m");
  ASSERT_EQ(mix->classes.size(), 1u);
  EXPECT_EQ(mix->classes[0].weight, 2);
  EXPECT_EQ(mix->classes[0].waypoints, 4);
  EXPECT_EQ(mix->classes[0].dwell_s, 15);
  ASSERT_EQ(mix->slos.size(), 1u);
  EXPECT_EQ(mix->slos[0].ToExpr(), "latency.plan.p99 <= 50");
}

TEST(TenantMixTest, RejectsInvalidMixes) {
  // No classes.
  EXPECT_FALSE(ParseTenantMix("<tenant_mix name=\"m\"/>").ok());
  // Not XML: a mix has one format.
  StatusOr<TenantMixSpec> json = ParseTenantMix(
      "{\"name\": \"m\", \"classes\": [{\"name\": \"a\"}]}");
  ASSERT_FALSE(json.ok());
  EXPECT_NE(json.status().message().find("expected '<'"), std::string::npos)
      << json.status().message();
  // Non-positive weight.
  EXPECT_FALSE(ParseTenantMix("<tenant_mix name=\"m\">"
                              "<class name=\"a\" weight=\"0\"/>"
                              "</tenant_mix>")
                   .ok());
  // Rate outside [0, 1].
  EXPECT_FALSE(ParseTenantMix("<tenant_mix name=\"m\">"
                              "<class name=\"a\" crash_rate=\"1.5\"/>"
                              "</tenant_mix>")
                   .ok());
  // Malformed SLO expression.
  EXPECT_FALSE(ParseTenantMix("<tenant_mix name=\"m\">"
                              "<class name=\"a\"/>"
                              "<slo expr=\"latency.plan.p999 &lt;= 1\"/>"
                              "</tenant_mix>")
                   .ok());
  // Unknown attribute.
  EXPECT_FALSE(ParseTenantMix("<tenant_mix name=\"m\">"
                              "<class name=\"a\" wieght=\"1\"/>"
                              "</tenant_mix>")
                   .ok());
  // Numbers past what the integer and SimTime conversions can hold.
  for (const std::string field : {"waypoints", "processes", "dwell_s"}) {
    auto mix = ParseTenantMix("<tenant_mix name=\"m\"><class name=\"a\" " +
                              field + "=\"1e30\"/></tenant_mix>");
    ASSERT_FALSE(mix.ok()) << field;
    EXPECT_NE(mix.status().message().find(field + ": 1e30 out of range"),
              std::string::npos)
        << mix.status().message();
  }
}

TEST(TenantMixTest, RejectsDuplicateAttributes) {
  auto mix = ParseTenantMix(
      "<tenant_mix><class name=\"a\" weight=\"2\" weight=\"9\"/>"
      "</tenant_mix>");
  ASSERT_FALSE(mix.ok());
  EXPECT_NE(mix.status().message().find("duplicate attribute \"weight\""),
            std::string::npos)
      << mix.status().message();
}

// --- Load generator ---

TEST(LoadGenTest, IsDeterministicAndCoversEveryClass) {
  const TenantMixSpec mix = BuiltinTenantMix();
  LoadSpec load;
  load.sessions = 500;
  load.arrival_window_s = 30;
  load.base_seed = 42;
  const std::vector<SessionSpec> a = GenerateLoad(mix, load);
  const std::vector<SessionSpec> b = GenerateLoad(mix, load);
  ASSERT_EQ(a.size(), 500u);
  std::set<int> classes_seen;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i + 1);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].class_index, b[i].class_index);
    EXPECT_LE(ToSecondsF(a[i].arrival), 30.0);
    EXPECT_DOUBLE_EQ(a[i].footprint_mb, VdroneFootprintMb(a[i].processes));
    classes_seen.insert(a[i].class_index);
  }
  EXPECT_EQ(classes_seen.size(), mix.classes.size());

  // A different seed draws a different load.
  load.base_seed = 43;
  const std::vector<SessionSpec> c = GenerateLoad(mix, load);
  bool any_difference = false;
  for (size_t i = 0; i < c.size(); ++i) {
    any_difference = any_difference || c[i].seed != a[i].seed;
  }
  EXPECT_TRUE(any_difference);
}

// --- End-to-end serving path ---

TEST(ControlPlaneTest, SweepSettlesEveryOrderWithZeroViolations) {
  ControlPlaneConfig config;
  config.shards = 2;
  config.threads = 2;
  config.seed = 7;
  config.load.sessions = 120;
  config.load.arrival_window_s = 20;
  ControlPlaneRouter router(config);
  const ControlPlaneReport report = router.Serve(BuiltinTenantMix());

  EXPECT_EQ(report.sessions, 120);
  EXPECT_EQ(report.billed + report.rejected + report.cancelled + report.failed,
            report.sessions);
  EXPECT_GT(report.billed, 0);
  EXPECT_EQ(report.settlement_errors, 0);
  EXPECT_EQ(report.admission_violations, 0u);
  EXPECT_GT(report.peak_concurrency, 0);
  EXPECT_GT(report.makespan_s, 0.0);
  EXPECT_GT(report.charged_ud, 0);
  // Every stage line is present and the money lines are integers in the
  // canonical text.
  ASSERT_EQ(report.stages.size(), 6u);
  EXPECT_NE(report.ToText().find("charged_ud"), std::string::npos);
}

}  // namespace
}  // namespace androne
