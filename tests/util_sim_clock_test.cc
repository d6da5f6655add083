#include "src/util/sim_clock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/util/rng.h"
#include "src/util/time.h"

namespace androne {
namespace {

TEST(SimClockTest, StartsAtZero) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  EXPECT_TRUE(clock.empty());
}

TEST(SimClockTest, RunNextAdvancesToEventTime) {
  SimClock clock;
  bool ran = false;
  clock.ScheduleAt(Millis(5), [&] { ran = true; });
  EXPECT_TRUE(clock.RunNext());
  EXPECT_TRUE(ran);
  EXPECT_EQ(clock.now(), Millis(5));
  EXPECT_FALSE(clock.RunNext());
}

TEST(SimClockTest, EventsRunInTimeOrder) {
  SimClock clock;
  std::vector<int> order;
  clock.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  clock.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  clock.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  clock.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimClockTest, EqualTimesRunFifo) {
  SimClock clock;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    clock.ScheduleAt(Millis(1), [&order, i] { order.push_back(i); });
  }
  clock.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimClockTest, ScheduleAfterUsesCurrentTime) {
  SimClock clock;
  clock.ScheduleAt(Millis(10), [] {});
  clock.RunNext();
  SimTime fired_at = -1;
  clock.ScheduleAfter(Millis(5), [&] { fired_at = clock.now(); });
  clock.RunNext();
  EXPECT_EQ(fired_at, Millis(15));
}

TEST(SimClockTest, PastDeadlinesClampToNow) {
  SimClock clock;
  clock.ScheduleAt(Millis(10), [] {});
  clock.RunNext();
  SimTime fired_at = -1;
  clock.ScheduleAt(Millis(1), [&] { fired_at = clock.now(); });
  clock.RunNext();
  EXPECT_EQ(fired_at, Millis(10));  // Not earlier than now.
}

TEST(SimClockTest, CancelPreventsExecution) {
  SimClock clock;
  bool ran = false;
  EventId id = clock.ScheduleAt(Millis(1), [&] { ran = true; });
  EXPECT_TRUE(clock.Cancel(id));
  EXPECT_TRUE(clock.empty());
  clock.RunAll();
  EXPECT_FALSE(ran);
}

TEST(SimClockTest, CancelOfRunEventReturnsFalse) {
  SimClock clock;
  EventId id = clock.ScheduleAt(Millis(1), [] {});
  clock.RunNext();
  EXPECT_FALSE(clock.Cancel(id));
}

TEST(SimClockTest, CancelUnknownIdReturnsFalse) {
  SimClock clock;
  EXPECT_FALSE(clock.Cancel(12345));
}

TEST(SimClockTest, RunUntilAdvancesClockEvenWhenIdle) {
  SimClock clock;
  clock.RunUntil(Seconds(3));
  EXPECT_EQ(clock.now(), Seconds(3));
}

TEST(SimClockTest, RunUntilRunsOnlyDueEvents) {
  SimClock clock;
  int ran = 0;
  clock.ScheduleAt(Millis(10), [&] { ++ran; });
  clock.ScheduleAt(Millis(20), [&] { ++ran; });
  clock.RunUntil(Millis(15));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(clock.now(), Millis(15));
  EXPECT_EQ(clock.pending_events(), 1u);
}

TEST(SimClockTest, EventsMayScheduleMoreEvents) {
  SimClock clock;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      clock.ScheduleAfter(Millis(1), chain);
    }
  };
  clock.ScheduleAfter(Millis(1), chain);
  clock.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(clock.now(), Millis(5));
}

TEST(SimClockTest, RunForAdvancesRelative) {
  SimClock clock;
  clock.RunFor(Seconds(1));
  clock.RunFor(Seconds(1));
  EXPECT_EQ(clock.now(), Seconds(2));
}

TEST(SimClockTest, RunAllGuardStopsRunawayLoops) {
  SimClock clock;
  uint64_t ran = 0;
  std::function<void()> forever = [&] {
    ++ran;
    clock.ScheduleAfter(Millis(1), forever);
  };
  clock.ScheduleAfter(Millis(1), forever);
  clock.RunAll(/*max_events=*/1000);
  EXPECT_EQ(ran, 1000u);
}

TEST(SimClockTest, CancelledPendingTracksTombstones) {
  SimClock clock;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(clock.ScheduleAt(Millis(i + 1), [] {}));
  }
  EXPECT_EQ(clock.cancelled_pending(), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(clock.Cancel(ids[i]));
  }
  EXPECT_EQ(clock.cancelled_pending(), 4u);
  EXPECT_EQ(clock.pending_events(), 6u);
  clock.RunAll();
  EXPECT_EQ(clock.cancelled_pending(), 0u);  // Tombstones shed by the pops.
  EXPECT_EQ(clock.pending_events(), 0u);
  EXPECT_EQ(clock.events_run(), 6u);
}

TEST(SimClockTest, CompactionBoundsTombstoneAccumulation) {
  SimClock clock;
  // A retry-timer workload: schedule far-future timers and cancel nearly all
  // of them. Without compaction the heap would hold every tombstone until
  // the end of time.
  std::vector<EventId> ids;
  for (int i = 0; i < 512; ++i) {
    ids.push_back(clock.ScheduleAt(Seconds(1000 + i), [] {}));
  }
  for (int i = 0; i < 512; ++i) {
    if (i % 8 != 0) {
      EXPECT_TRUE(clock.Cancel(ids[i]));
    }
  }
  EXPECT_EQ(clock.pending_events(), 64u);
  EXPECT_GE(clock.compactions(), 1u);
  // Compaction keeps tombstones at no more than half the heap.
  EXPECT_LE(clock.cancelled_pending(), clock.pending_events());
  int ran = 0;
  clock.ScheduleAt(Millis(1), [&] { ++ran; });
  clock.RunAll();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(clock.events_run(), 65u);
  EXPECT_EQ(clock.cancelled_pending(), 0u);
}

TEST(SimClockTest, SlotReuseAfterCancelKeepsIdsDistinct) {
  SimClock clock;
  bool a_ran = false;
  bool b_ran = false;
  EventId a = clock.ScheduleAt(Millis(1), [&] { a_ran = true; });
  EXPECT_TRUE(clock.Cancel(a));
  // b may recycle a's slot, but a's id must stay dead.
  EventId b = clock.ScheduleAt(Millis(2), [&] { b_ran = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(clock.Cancel(a));
  clock.RunAll();
  EXPECT_FALSE(a_ran);
  EXPECT_TRUE(b_ran);
}

TEST(SimClockTest, EventIdsAreNeverZero) {
  SimClock clock;
  for (int i = 0; i < 100; ++i) {
    EventId id = clock.ScheduleAfter(Millis(1), [] {});
    EXPECT_NE(id, 0u);  // 0 is the "no event" sentinel for callers.
    clock.Cancel(id);
  }
}

TEST(SimClockTest, RunUntilDoesNotOverrunPastCancelledFront) {
  SimClock clock;
  int ran = 0;
  EventId early = clock.ScheduleAt(Millis(10), [&] { ++ran; });
  clock.ScheduleAt(Millis(20), [&] { ++ran; });
  clock.Cancel(early);
  // The tombstone at 10 ms must not let the 20 ms event run at 15 ms.
  clock.RunUntil(Millis(15));
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(clock.now(), Millis(15));
  clock.RunUntil(Millis(25));
  EXPECT_EQ(ran, 1);
}

TEST(SimClockTest, CancelAndResetReleaseClosures) {
  SimClock clock;
  auto token = std::make_shared<int>(0);
  EventId first = clock.ScheduleAt(Millis(1), [token] {});
  long seen_while_running = 0;
  clock.ScheduleAt(Millis(2),
                   [token, &seen_while_running] {
                     seen_while_running = token.use_count();
                   });
  clock.ScheduleAt(Millis(3), [token] {});
  ASSERT_EQ(token.use_count(), 4);

  // A cancelled closure is released at once, not when its tombstone pops.
  EXPECT_TRUE(clock.Cancel(first));
  EXPECT_EQ(token.use_count(), 3);

  // The closure that ran is alive while it runs and released after.
  EXPECT_TRUE(clock.RunNext());
  EXPECT_EQ(seen_while_running, 3);
  EXPECT_EQ(token.use_count(), 2);

  // A restore drops every pending closure.
  clock.ResetForRestore(Millis(10), clock.events_run());
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(clock.empty());
}

// Calls |on_destroy| from its destructor: stands in for a captured object
// whose teardown touches the clock.
struct DestroyHook {
  std::function<void()> on_destroy;
  ~DestroyHook() { on_destroy(); }
};

TEST(SimClockTest, ClosureDestructorSeesAConsistentClock) {
  SimClock clock;
  size_t pending_at_destroy = 99;
  EventId rescheduled = 0;
  auto hook = std::make_shared<DestroyHook>();
  hook->on_destroy = [&] {
    pending_at_destroy = clock.pending_events();
    rescheduled = clock.ScheduleAt(Millis(5), [] {});
  };
  EventId id = clock.ScheduleAt(Millis(1), [hook] {});
  hook.reset();  // The parked closure now holds the only reference.
  EXPECT_TRUE(clock.Cancel(id));
  EXPECT_EQ(pending_at_destroy, 0u);
  ASSERT_NE(rescheduled, 0u);
  EXPECT_EQ(clock.pending_events(), 1u);
  clock.RunAll();
  EXPECT_EQ(clock.events_run(), 1u);
  EXPECT_EQ(clock.now(), Millis(5));
}

// Drives a SimClock and a plain ordered set of (when, seq) keys through the
// same random operations and checks that they agree on everything the
// clock exposes: dispatch order, Cancel results, now(), pending_events(),
// events_run(), and each pending event's PendingInfo deadline and order.
class ReferenceQueueHarness {
 public:
  explicit ReferenceQueueHarness(uint64_t seed) : rng_(seed) {}

  void Run(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      Step();
      CheckCounters();
      if (op % 500 == 0) {
        CheckPendingInfo();
      }
    }
    CheckPendingInfo();
  }

  const SimClock& clock() const { return clock_; }
  uint64_t dispatched() const { return dispatched_; }

 private:
  // (deadline, schedule order): the reference queue's key.
  using Key = std::pair<SimTime, uint64_t>;
  static constexpr SimDuration kGrid = Millis(1);

  void Step() {
    uint64_t roll = rng_.NextU64Below(100);
    if (++since_reset_ >= 2000 && roll < 2) {
      Reset();
    } else if (roll < 30) {
      // A coarse grid makes equal deadlines common; a few land in the past
      // and clamp to now, and one in five is a far-off timeout, so the heap
      // grows past the compaction floor and cancels leave it tombstones.
      int64_t step = rng_.Bernoulli(0.2)
                         ? 40 + static_cast<int64_t>(rng_.NextU64Below(400))
                         : static_cast<int64_t>(rng_.NextU64Below(44)) - 3;
      ScheduleAt((now_ / kGrid + step) * kGrid);
    } else if (roll < 45) {
      int64_t steps = static_cast<int64_t>(rng_.NextU64Below(22)) - 1;
      ScheduleAfter(steps * kGrid);
    } else if (roll < 65) {
      CancelChecked(PickId());
    } else if (roll < 88) {
      RunNextChecked();
    } else {
      SimTime until = now_ + static_cast<int64_t>(rng_.NextU64Below(4)) *
                                 kGrid +
                      (rng_.Bernoulli(0.5) ? 0 : kGrid / 2);
      limit_ = until;
      clock_.RunUntil(until);
      limit_ = kNoLimit;
      now_ = std::max(now_, until);
      ExpectFrontAfter(until);
    }
  }

  // Any id ever handed out, most of them stale; half the time a live one
  // so tombstones pile up to compaction; now and then one never handed out.
  EventId PickId() {
    uint64_t roll = rng_.NextU64Below(100);
    if (roll < 50 && !live_.empty()) {
      auto it = live_.begin();
      std::advance(it, rng_.NextU64Below(live_.size()));
      return it->first;
    }
    if (roll < 95 && !every_id_.empty()) {
      return every_id_[rng_.NextU64Below(every_id_.size())];
    }
    return roll % 2 == 0 ? 0 : rng_.NextU64();
  }

  SimClock::Callback MakeCallback(uint64_t seq) {
    return [this, seq] { OnRun(seq); };
  }

  void Track(EventId id, SimTime when) {
    Key key{std::max(when, now_), next_seq_++};
    EXPECT_TRUE(live_.emplace(id, key).second)
        << "id handed out twice while live";
    id_of_[key] = id;
    every_id_.push_back(id);
  }

  void ScheduleAt(SimTime when) {
    Track(clock_.ScheduleAt(when, MakeCallback(next_seq_)), when);
  }

  void ScheduleAfter(SimDuration delay) {
    Track(clock_.ScheduleAfter(delay, MakeCallback(next_seq_)),
          now_ + std::max<SimDuration>(delay, 0));
  }

  void CancelChecked(EventId id) {
    auto it = live_.find(id);
    bool expected = it != live_.end();
    if (expected) {
      id_of_.erase(it->second);
      live_.erase(it);
    }
    EXPECT_EQ(clock_.Cancel(id), expected) << "id " << id;
  }

  void RunNextChecked() {
    bool expect_run = !id_of_.empty();
    uint64_t before = dispatched_;
    EXPECT_EQ(clock_.RunNext(), expect_run);
    EXPECT_EQ(dispatched_, before + (expect_run ? 1 : 0));
  }

  // Every dispatch must be the reference queue's front.
  void OnRun(uint64_t seq) {
    ASSERT_FALSE(id_of_.empty()) << "dispatched seq " << seq;
    auto front = id_of_.begin();
    Key key = front->first;
    EXPECT_EQ(key.second, seq) << "dispatch order diverged";
    EXPECT_LE(key.first, limit_) << "RunUntil ran past its deadline";
    live_.erase(front->second);
    id_of_.erase(front);
    now_ = key.first;
    ++events_run_;
    ++dispatched_;
    EXPECT_EQ(clock_.now(), now_);
    EXPECT_EQ(clock_.events_run(), events_run_);
    // Follow-ups (one may take back the slot just retired) and a cancel.
    int follow_ups = static_cast<int>(rng_.NextU64Below(3));
    for (int i = 0; i < follow_ups; ++i) {
      if (rng_.Bernoulli(0.5)) {
        ScheduleAfter(static_cast<int64_t>(rng_.NextU64Below(6)) * kGrid);
      } else {
        ScheduleAt(now_ + static_cast<int64_t>(rng_.NextU64Below(6)) * kGrid);
      }
    }
    CancelChecked(PickId());
  }

  void ExpectFrontAfter(SimTime until) {
    if (!id_of_.empty()) {
      EXPECT_GT(id_of_.begin()->first.first, until);
    }
  }

  void Reset() {
    since_reset_ = 0;
    SimTime now = std::max<SimTime>(
        0, now_ + static_cast<int64_t>(rng_.NextU64Below(8)) * kGrid - kGrid);
    uint64_t events_run = events_run_ + rng_.NextU64Below(5);
    clock_.ResetForRestore(now, events_run);
    live_.clear();
    id_of_.clear();
    now_ = now;
    events_run_ = events_run;
  }

  void CheckCounters() {
    EXPECT_EQ(clock_.now(), now_);
    EXPECT_EQ(clock_.pending_events(), live_.size());
    EXPECT_EQ(clock_.empty(), live_.empty());
    EXPECT_EQ(clock_.events_run(), events_run_);
  }

  // PendingInfo must report the reference deadline of every pending id,
  // order them as the reference does, and know nothing of the rest.
  void CheckPendingInfo() {
    std::vector<std::pair<Key, EventId>> reported;
    for (EventId id : every_id_) {
      SimTime when = -1;
      uint64_t seq = 0;
      bool pending = clock_.PendingInfo(id, &when, &seq);
      auto it = live_.find(id);
      ASSERT_EQ(pending, it != live_.end()) << "id " << id;
      if (pending) {
        EXPECT_EQ(when, it->second.first) << "id " << id;
        reported.push_back({{when, seq}, id});
      }
    }
    std::sort(reported.begin(), reported.end());
    ASSERT_EQ(reported.size(), id_of_.size());
    auto expected = id_of_.begin();
    for (const auto& [key, id] : reported) {
      EXPECT_EQ(id, expected->second) << "pending order diverged";
      ++expected;
    }
  }

  static constexpr SimTime kNoLimit = std::numeric_limits<SimTime>::max();

  SimClock clock_;
  Rng rng_;
  SimTime now_ = 0;
  uint64_t events_run_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t dispatched_ = 0;
  int since_reset_ = 0;
  SimTime limit_ = kNoLimit;
  std::map<EventId, Key> live_;
  std::map<Key, EventId> id_of_;
  std::vector<EventId> every_id_;
};

TEST(SimClockTest, MatchesReferenceQueueUnderRandomOps) {
  for (uint64_t seed = 1; seed <= 16 && !::testing::Test::HasFailure();
       ++seed) {
    SCOPED_TRACE(seed);
    ReferenceQueueHarness harness(seed);
    harness.Run(20000);
    EXPECT_GT(harness.dispatched(), 0u);
    EXPECT_GT(harness.clock().compactions(), 0u);
  }
}

TEST(TimeTest, ConversionHelpers) {
  EXPECT_EQ(Micros(1), 1000);
  EXPECT_EQ(Millis(1), 1000000);
  EXPECT_EQ(Seconds(1), 1000000000);
  EXPECT_EQ(SecondsF(0.0025), 2500000);
  EXPECT_DOUBLE_EQ(ToSecondsF(Seconds(2)), 2.0);
  EXPECT_EQ(ToMicros(Millis(3)), 3000);
  EXPECT_EQ(ToMillis(Seconds(4)), 4000);
}

}  // namespace
}  // namespace androne
