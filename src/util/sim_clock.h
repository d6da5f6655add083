// SimClock: the deterministic discrete-event engine at the heart of the
// AnDrone simulation substrates. The real-time kernel scheduler, the flight
// physics, and the network link models all schedule callbacks on one shared
// SimClock so an entire multi-virtual-drone flight is reproducible and runs
// orders of magnitude faster than wall-clock time.
//
// Hot-path design: the heap holds only 24-byte, trivially copyable
// (when, seq, slot, generation) keys; each pending closure is parked in its
// slot of a slot table, so no push, sift or pop moves a std::function.
// Cancellation is O(1) against the slots' generation stamps instead of a
// per-event hash set: an EventId packs (slot, generation), Cancel bumps the
// generation and frees the parked closure at once, and a heap key whose
// generation no longer matches its slot is a tombstone skipped when popped.
// When tombstones outnumber live events the heap is compacted in place, so a
// workload that schedules-and-cancels (retry timers, watchdogs) costs no hash
// allocations and no unbounded heap growth.
#ifndef SRC_UTIL_SIM_CLOCK_H_
#define SRC_UTIL_SIM_CLOCK_H_

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "src/util/time.h"

namespace androne {

// Identifies a scheduled event so it can be cancelled. Packs a slot index in
// the high 32 bits and that slot's generation stamp in the low 32; never 0,
// so 0 remains usable as a "no event" sentinel by callers.
using EventId = uint64_t;

class SimClock {
 public:
  using Callback = std::function<void()>;

  SimClock() = default;
  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  SimTime now() const { return now_; }

  // Schedules |cb| to run at absolute simulated time |when| (clamped to now).
  EventId ScheduleAt(SimTime when, Callback cb);

  // Schedules |cb| to run |delay| after the current simulated time.
  EventId ScheduleAfter(SimDuration delay, Callback cb);

  // Cancels a pending event. Returns false if it already ran or is unknown.
  bool Cancel(EventId id);

  // Runs the single earliest pending event, advancing the clock to its
  // deadline. Returns false if no events are pending.
  bool RunNext();

  // Runs all events with deadline <= |until|, then advances the clock to
  // |until| even if the queue drains early.
  void RunUntil(SimTime until);

  // Runs the simulation forward by |duration|.
  void RunFor(SimDuration duration) { RunUntil(now_ + duration); }

  // Drains every pending event (events may schedule more events). The
  // |max_events| guard counts executed (non-cancelled) events and protects
  // against runaway self-rescheduling loops.
  void RunAll(uint64_t max_events = 100'000'000);

  // Optional observer invoked after the clock advances to each executed
  // event's deadline, just before the callback runs. Null (the default)
  // costs a single branch per dispatch; the obs layer's AttachClockTrace
  // installs a sampled counter here. The hook must not mutate the clock.
  using DispatchHook = std::function<void(SimTime when)>;
  void SetDispatchHook(DispatchHook hook) { dispatch_hook_ = std::move(hook); }

  bool empty() const { return live_count_ == 0; }
  size_t pending_events() const { return live_count_; }

  // Cancelled events still occupying heap entries (tombstones awaiting a pop
  // or the next compaction). Bounded: compaction keeps this under
  // max(live, kCompactionMinEntries).
  size_t cancelled_pending() const { return cancelled_pending_; }

  // Total events executed (excludes cancelled) — the fleet benches report
  // aggregate events/sec from this.
  uint64_t events_run() const { return events_run_; }

  // Times the heap was compacted to shed tombstones.
  uint64_t compactions() const { return compactions_; }

  // --- Checkpoint/restore support (DESIGN.md §13) ---

  // Looks up a still-pending event: fills its absolute deadline and FIFO
  // sequence stamp and returns true, or returns false when the event
  // already ran or was cancelled. Save paths use this to persist each
  // armed timer's (deadline, order) so restore can re-schedule them in the
  // original relative dispatch order. O(heap) — checkpoint-time only.
  bool PendingInfo(EventId id, SimTime* when, uint64_t* seq) const;

  // Restore entry point: drops every pending event (their closures belong
  // to the pre-restore world), rewinds/advances the clock to |now| and
  // overwrites the executed-event counter. Slot generations are NOT reset,
  // so stale EventIds held by the caller read as already-run. Components
  // re-arm their own timers afterwards.
  void ResetForRestore(SimTime now, uint64_t events_run);

 private:
  struct Slot {
    uint32_t generation = 1;  // Bumped on run/cancel; stale entries mismatch.
    Callback cb;              // The pending event's closure; empty when free.
  };
  // A heap key: the closure stays parked in slots_[slot].
  struct Event {
    SimTime when;
    uint64_t seq;  // Tie-break on insertion order for FIFO among equal times.
    uint32_t slot;
    uint32_t generation;
  };
  static_assert(sizeof(Event) == 24 && std::is_trivially_copyable_v<Event>);
  // std::push_heap/pop_heap comparator: max-heap on "later", so the earliest
  // (or FIFO-first among equals) event surfaces at front.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // Below this size compaction is not worth the make_heap; tombstones are
  // shed by pops instead.
  static constexpr size_t kCompactionMinEntries = 64;

  bool IsLive(const Event& ev) const {
    return slots_[ev.slot].generation == ev.generation;
  }
  // Retires |slot| (run or cancelled): bumps the generation so heap entries
  // stamped with the old one read as tombstones, and recycles the slot.
  // Returns the parked closure, which the caller lets die (or runs) only
  // after the clock's counters are consistent again.
  Callback RetireSlot(uint32_t slot);
  // Pops the front heap key.
  Event PopTop();
  // Drops tombstoned entries and re-heapifies. Called when cancelled
  // tombstones exceed half the heap.
  void MaybeCompact();
  // Pops and runs the earliest live event, discarding any tombstones on the
  // way. Returns false if the heap held only tombstones.
  bool PopAndRunLive();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  DispatchHook dispatch_hook_;
  std::vector<Event> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_count_ = 0;
  size_t cancelled_pending_ = 0;
  uint64_t events_run_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace androne

#endif  // SRC_UTIL_SIM_CLOCK_H_
