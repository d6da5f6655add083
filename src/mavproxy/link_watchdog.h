// Link-health watchdog and failsafe state machine (ArduPilot GCS-failsafe
// analog, FS_GCS_ENABLE). The ground side — cloud planner or tenant GCS —
// emits heartbeats over the (lossy) link; the drone side tracks arrival
// times. When the deadline passes the drone enters a failsafe: first hold
// position (Loiter), then Return-to-Launch on prolonged loss. The first
// heartbeat after an episode recovers the link and tenant control resumes
// (mode restoration is the ground side's responsibility, as with a real
// GCS failsafe).
#ifndef SRC_MAVPROXY_LINK_WATCHDOG_H_
#define SRC_MAVPROXY_LINK_WATCHDOG_H_

#include <functional>
#include <vector>

#include "src/snapshot/snapshot.h"
#include "src/util/sim_clock.h"

namespace androne {

struct LinkWatchdogConfig {
  SimDuration check_period = Millis(250);
  // Missed-heartbeat deadline: enter failsafe Loiter.
  SimDuration loiter_after = SecondsF(2.5);
  // Prolonged loss: escalate to Return-to-Launch.
  SimDuration rtl_after = Seconds(8);
};

enum class LinkFailsafeStage {
  kNone,    // Link healthy.
  kLoiter,  // Heartbeats missed; holding position.
  kRtl,     // Prolonged loss; returning to launch.
};

const char* LinkFailsafeStageName(LinkFailsafeStage stage);

struct FailsafeEpisode {
  SimTime entered = 0;
  SimTime recovered = -1;  // -1 while the episode is still open.
  LinkFailsafeStage deepest = LinkFailsafeStage::kLoiter;
};

class LinkWatchdog {
 public:
  // Called on each failsafe escalation (kLoiter, then possibly kRtl).
  using StageCallback = std::function<void(LinkFailsafeStage)>;
  using RecoveryCallback = std::function<void()>;

  LinkWatchdog(SimClock* clock, LinkWatchdogConfig config)
      : clock_(clock), config_(config) {}

  void SetStageCallback(StageCallback cb) { on_stage_ = std::move(cb); }
  void SetRecoveryCallback(RecoveryCallback cb) {
    on_recovery_ = std::move(cb);
  }

  // Begins periodic checks; the link is considered alive as of Start().
  void Start();
  void Stop() { running_ = false; }

  // A heartbeat arrived from the ground side. Recovers any open episode.
  void NoteHeartbeat();

  LinkFailsafeStage stage() const { return stage_; }
  bool link_healthy() const { return stage_ == LinkFailsafeStage::kNone; }
  SimTime last_heartbeat() const { return last_heartbeat_; }
  uint64_t heartbeats_seen() const { return heartbeats_seen_; }
  const std::vector<FailsafeEpisode>& episodes() const { return episodes_; }

  // Checkpoint/restore: the failsafe machine, heartbeat bookkeeping, and
  // the armed periodic check (key "mav.watchdog").
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("WDOG");
    ar.Bool(running_);
    ar.Enum(stage_, LinkFailsafeStage::kRtl);
    ar.I64(last_heartbeat_);
    ar.U64(heartbeats_seen_);
    ar.Seq(episodes_, [&](FailsafeEpisode& e) {
      ar.I64(e.entered);
      ar.I64(e.recovered);
      ar.Enum(e.deepest, LinkFailsafeStage::kRtl);
    });
    ar.Timer("mav.watchdog", tick_event_);
    return ar.status();
  }
  void RegisterTimers(TimerRearmer& rearmer) {
    rearmer.Register("mav.watchdog", [this](SimTime when) {
      tick_event_ = clock_->ScheduleAt(when, [this] {
        if (!running_) {
          return;
        }
        Check();
        ScheduleTick();
      });
    });
  }

 private:
  void Check();
  void ScheduleTick();

  SimClock* clock_;
  LinkWatchdogConfig config_;
  StageCallback on_stage_;
  RecoveryCallback on_recovery_;
  bool running_ = false;
  LinkFailsafeStage stage_ = LinkFailsafeStage::kNone;
  SimTime last_heartbeat_ = 0;
  uint64_t heartbeats_seen_ = 0;
  std::vector<FailsafeEpisode> episodes_;
  EventId tick_event_ = 0;
};

}  // namespace androne

#endif  // SRC_MAVPROXY_LINK_WATCHDOG_H_
