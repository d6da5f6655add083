#include "src/util/sim_clock.h"

#include <algorithm>
#include <utility>

namespace androne {

namespace {

EventId PackId(uint32_t slot, uint32_t generation) {
  return (static_cast<EventId>(slot) << 32) | generation;
}

}  // namespace

EventId SimClock::ScheduleAt(SimTime when, Callback cb) {
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{});
  }
  Slot& parked = slots_[slot];
  parked.cb = std::move(cb);
  heap_.push_back(Event{when, next_seq_++, slot, parked.generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
  return PackId(slot, parked.generation);
}

EventId SimClock::ScheduleAfter(SimDuration delay, Callback cb) {
  return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(cb));
}

SimClock::Callback SimClock::RetireSlot(uint32_t slot) {
  Slot& retired = slots_[slot];
  // Generation 0 is skipped on wrap so no EventId is ever 0 and a stale
  // 32-bit id cannot collide with a freshly reset stamp.
  if (++retired.generation == 0) {
    retired.generation = 1;
  }
  free_slots_.push_back(slot);
  return std::exchange(retired.cb, nullptr);
}

bool SimClock::Cancel(EventId id) {
  uint32_t slot = static_cast<uint32_t>(id >> 32);
  uint32_t generation = static_cast<uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].generation != generation) {
    return false;  // Already ran, already cancelled, or never existed.
  }
  Callback cancelled = RetireSlot(slot);
  --live_count_;
  ++cancelled_pending_;
  MaybeCompact();
  return true;  // |cancelled| dies here, against a consistent clock.
}

SimClock::Event SimClock::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = heap_.back();
  heap_.pop_back();
  return ev;
}

void SimClock::MaybeCompact() {
  if (heap_.size() < kCompactionMinEntries ||
      cancelled_pending_ * 2 <= heap_.size()) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Event& ev) { return !IsLive(ev); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  cancelled_pending_ = 0;
  ++compactions_;
}

bool SimClock::PopAndRunLive() {
  if (live_count_ == 0) {
    // Only tombstones remain (if anything); shed them all at once.
    heap_.clear();
    cancelled_pending_ = 0;
    return false;
  }
  while (!heap_.empty()) {
    Event ev = PopTop();
    if (!IsLive(ev)) {
      --cancelled_pending_;
      continue;  // Tombstone of a cancelled event.
    }
    // Moved out before it runs: the callback may take this slot back or
    // grow slots_, relocating every parked closure.
    Callback cb = RetireSlot(ev.slot);
    --live_count_;
    now_ = ev.when;
    ++events_run_;
    if (dispatch_hook_) {
      dispatch_hook_(now_);
    }
    cb();
    return true;
  }
  return false;
}

bool SimClock::RunNext() { return PopAndRunLive(); }

bool SimClock::PendingInfo(EventId id, SimTime* when, uint64_t* seq) const {
  uint32_t slot = static_cast<uint32_t>(id >> 32);
  uint32_t generation = static_cast<uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].generation != generation) {
    return false;
  }
  for (const Event& ev : heap_) {
    if (ev.slot == slot && ev.generation == generation) {
      *when = ev.when;
      *seq = ev.seq;
      return true;
    }
  }
  return false;
}

void SimClock::ResetForRestore(SimTime now, uint64_t events_run) {
  std::vector<Callback> dropped;
  dropped.reserve(live_count_);
  for (const Event& ev : heap_) {
    if (IsLive(ev)) {
      dropped.push_back(RetireSlot(ev.slot));
    }
  }
  heap_.clear();
  live_count_ = 0;
  cancelled_pending_ = 0;
  now_ = now;
  events_run_ = events_run;
}  // |dropped| dies here, against the restored clock.

void SimClock::RunUntil(SimTime until) {
  for (;;) {
    // Skim tombstones first: a cancelled entry ahead of |until| must not let
    // PopAndRunLive reach past the deadline to the next live event.
    while (!heap_.empty() && !IsLive(heap_.front())) {
      PopTop();
      --cancelled_pending_;
    }
    if (heap_.empty() || heap_.front().when > until) {
      break;
    }
    PopAndRunLive();
  }
  if (now_ < until) {
    now_ = until;
  }
}

void SimClock::RunAll(uint64_t max_events) {
  uint64_t ran = 0;
  while (live_count_ > 0 && ran < max_events) {
    if (PopAndRunLive()) {
      ++ran;
    }
  }
  if (live_count_ == 0 && !heap_.empty()) {
    heap_.clear();  // Shed any trailing tombstones.
    cancelled_pending_ = 0;
  }
}

}  // namespace androne
