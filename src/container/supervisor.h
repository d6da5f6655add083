// Crash supervision for containers (the AnDrone analog of a per-service
// init restart policy). The supervisor registers as the runtime's crash
// listener; when a watched container crashes it schedules a restart with
// exponential backoff, resets the failure streak once the container has
// stayed up for a stability window, and gives up after too many
// consecutive failures. Sibling containers are never touched — a crashing
// virtual drone does not disturb the others (paper §4.1 isolation).
#ifndef SRC_CONTAINER_SUPERVISOR_H_
#define SRC_CONTAINER_SUPERVISOR_H_

#include <map>
#include <vector>

#include "src/container/runtime.h"
#include "src/obs/metrics.h"
#include "src/util/backoff.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"

namespace androne {

struct SupervisorPolicy {
  BackoffPolicy backoff{Millis(500), 2.0, Seconds(30), 0.1};
  // Give up after this many consecutive failed lives.
  int max_consecutive_restarts = 5;
};

// One crash-and-restart cycle of a watched container.
struct RestartEpisode {
  ContainerId id = 0;
  SimTime crashed_at = 0;
  SimTime restarted_at = -1;  // -1 if the restart failed or never ran.
  int streak = 0;             // Consecutive failures at the time of the crash.
};

class ContainerSupervisor {
 public:
  ContainerSupervisor(SimClock* clock, ContainerRuntime* runtime,
                      SupervisorPolicy policy, uint64_t seed);

  // Supervise this container. Unwatched containers crash without restart.
  void Watch(ContainerId id);
  void Unwatch(ContainerId id);

  // True once the supervisor has abandoned the container.
  bool GaveUpOn(ContainerId id) const;

  uint64_t restarts() const { return restarts_; }
  uint64_t gave_up() const { return gave_up_; }
  const std::vector<RestartEpisode>& episodes() const { return episodes_; }
  // Longest consecutive-failure streak observed across all episodes — the
  // crash-loop depth a triage bucket keys on.
  int max_streak() const;

  // Publishes the supervisor's restart accounting as "supervisor.*"
  // counters (episodes, restarts, gave_up, max_streak) so campaign triage
  // can bucket crash-loop scenarios from the merged fleet snapshot.
  void ExportMetrics(MetricsRegistry& metrics) const;

  // --- Checkpoint/restore (DESIGN.md §13) ---
  // Persists the watch table (streaks, pending restarts with their armed
  // backoff deadlines), the episode log, and the jitter RNG. The restoring
  // world must Watch() the identical container set before the load.
  // Instantiated for SaveArchive and LoadArchive in supervisor.cc.
  template <class Ar>
  Status Visit(Ar& ar);

 private:
  struct Watched {
    int streak = 0;          // Consecutive restarts without a stable life.
    SimTime last_start = 0;  // When the current life began.
    bool restart_pending = false;
    bool gave_up = false;
    EventId restart_event = 0;  // Armed backoff timer when restart_pending.
  };

  void OnCrash(ContainerId id);
  // Schedules |id|'s restart at |when|; |w| is its watch entry.
  void ArmRestart(ContainerId id, Watched& w, SimTime when);
  void AttemptRestart(ContainerId id);

  SimClock* clock_;
  ContainerRuntime* runtime_;
  SupervisorPolicy policy_;
  Rng rng_;
  std::map<ContainerId, Watched> watched_;
  std::vector<RestartEpisode> episodes_;
  uint64_t restarts_ = 0;
  uint64_t gave_up_ = 0;
};

// Restore-with-backoff for whole crashed worlds (DESIGN.md §13): the same
// streak/backoff/give-up discipline ContainerSupervisor applies to container
// lives, lifted to crash-recovery attempts of a FleetWorld. The supervisor
// is pure bookkeeping — the recovery loop owns the actual rebuild — so each
// episode records the backoff delay it computed instead of sleeping it
// (sleeping simulated time inside the restored timeline would break the
// bit-identical-replay guarantee).
struct RestorePolicy {
  BackoffPolicy backoff{Millis(500), 2.0, Seconds(30), 0.0};
  // Give up after this many restores of one world.
  int max_restores = 3;
};

// One crash-and-restore cycle of a supervised world.
struct RestoreEpisode {
  int ordinal = 0;               // 0-based crash index.
  SimTime checkpoint_time = -1;  // Sim time restored to; -1 = replay from boot.
  SimDuration backoff_delay = 0; // Backoff computed for this episode.
  int streak = 0;                // Consecutive restores before this one.
};

class RestoreSupervisor {
 public:
  RestoreSupervisor(RestorePolicy policy, uint64_t seed)
      : policy_(policy), rng_(seed) {}

  // A crash landed. Returns false when the restore budget is spent (the
  // supervisor gives up) or a restore is already in progress (the
  // no-double-restore guard); otherwise records an episode with its backoff
  // delay and returns true. The caller performs exactly one restore and
  // must close it with FinishRestore().
  bool BeginRestore(SimTime checkpoint_time) {
    if (gave_up_ || in_progress_) {
      return false;
    }
    if (static_cast<int>(episodes_.size()) >= policy_.max_restores) {
      gave_up_ = true;
      return false;
    }
    RestoreEpisode episode;
    episode.ordinal = static_cast<int>(episodes_.size());
    episode.checkpoint_time = checkpoint_time;
    episode.streak = streak_;
    episode.backoff_delay = policy_.backoff.DelayFor(streak_, rng_);
    episodes_.push_back(episode);
    ++streak_;
    in_progress_ = true;
    return true;
  }
  void FinishRestore() { in_progress_ = false; }

  bool restore_in_progress() const { return in_progress_; }
  bool gave_up() const { return gave_up_; }
  int restores() const { return static_cast<int>(episodes_.size()); }
  const std::vector<RestoreEpisode>& episodes() const { return episodes_; }

 private:
  RestorePolicy policy_;
  Rng rng_;
  std::vector<RestoreEpisode> episodes_;
  int streak_ = 0;
  bool in_progress_ = false;
  bool gave_up_ = false;
};

}  // namespace androne

#endif  // SRC_CONTAINER_SUPERVISOR_H_
