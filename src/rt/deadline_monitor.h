// Sliding-window deadline-miss monitor for periodic real-time tasks.
//
// The flight controller's 400 Hz fast loop tolerates isolated deadline
// misses (motors hold their last output for one tick), but a *storm* of
// misses means the complex stack has lost its real-time guarantee — the
// Simplex trigger condition. The monitor counts misses inside a sliding
// time window and trips when the count crosses a threshold; it recovers on
// its own as old misses age out of the window.
#ifndef SRC_RT_DEADLINE_MONITOR_H_
#define SRC_RT_DEADLINE_MONITOR_H_

#include <cstdint>
#include <deque>

#include "src/util/status.h"
#include "src/util/time.h"

namespace androne {

class TraceRecorder;

class DeadlineMonitor {
 public:
  DeadlineMonitor(SimDuration window, int threshold)
      : window_(window), threshold_(threshold) {}

  // Attaches the rt trace category: each miss records an instant event
  // (arg = misses currently in the window) and each trip edge records a
  // storm event. Pass nullptr to detach.
  void SetTrace(TraceRecorder* trace);

  // Records one loop iteration's outcome at |now|. Call every tick — hits
  // advance the window even when nothing missed.
  void Record(SimTime now, bool missed);

  int misses_in_window() const { return static_cast<int>(misses_.size()); }
  bool tripped() const { return misses_in_window() >= threshold_; }
  uint64_t total_misses() const { return total_misses_; }

  // Checkpoint/restore: the sliding window, lifetime count, and the storm
  // edge-detector latch (window/threshold are config).
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Seq(misses_, [&](SimTime& t) { ar.I64(t); });
    ar.U64(total_misses_);
    ar.Bool(storm_traced_);
    return ar.status();
  }

 private:
  SimDuration window_;
  int threshold_;
  std::deque<SimTime> misses_;
  uint64_t total_misses_ = 0;
  TraceRecorder* trace_ = nullptr;
  uint32_t miss_name_ = 0;
  uint32_t storm_name_ = 0;
  bool storm_traced_ = false;  // Edge-detect so a storm traces once.
};

}  // namespace androne

#endif  // SRC_RT_DEADLINE_MONITOR_H_
