#include "src/container/supervisor.h"

#include <algorithm>
#include <string>

#include "src/snapshot/archive.h"
#include "src/util/logging.h"

namespace androne {

namespace {
// A life this long resets the consecutive-failure streak.
constexpr SimDuration kStableAfter = Seconds(30);
}  // namespace

ContainerSupervisor::ContainerSupervisor(SimClock* clock,
                                         ContainerRuntime* runtime,
                                         SupervisorPolicy policy,
                                         uint64_t seed)
    : clock_(clock), runtime_(runtime), policy_(policy), rng_(seed) {
  runtime_->SetCrashListener([this](ContainerId id) { OnCrash(id); });
}

void ContainerSupervisor::Watch(ContainerId id) {
  Watched w;
  w.last_start = clock_->now();
  watched_[id] = w;
}

void ContainerSupervisor::Unwatch(ContainerId id) { watched_.erase(id); }

bool ContainerSupervisor::GaveUpOn(ContainerId id) const {
  auto it = watched_.find(id);
  return it != watched_.end() && it->second.gave_up;
}

int ContainerSupervisor::max_streak() const {
  int deepest = 0;
  for (const RestartEpisode& episode : episodes_) {
    deepest = std::max(deepest, episode.streak);
  }
  return deepest;
}

void ContainerSupervisor::ExportMetrics(MetricsRegistry& metrics) const {
  metrics.Add("supervisor.episodes", static_cast<double>(episodes_.size()));
  metrics.Add("supervisor.restarts", static_cast<double>(restarts_));
  metrics.Add("supervisor.gave_up", static_cast<double>(gave_up_));
  metrics.Add("supervisor.max_streak", static_cast<double>(max_streak()));
}

void ContainerSupervisor::OnCrash(ContainerId id) {
  auto it = watched_.find(id);
  if (it == watched_.end() || it->second.gave_up ||
      it->second.restart_pending) {
    return;
  }
  Watched& w = it->second;
  // A long, healthy life forgives earlier failures.
  if (clock_->now() - w.last_start >= kStableAfter) {
    w.streak = 0;
  }
  RestartEpisode episode;
  episode.id = id;
  episode.crashed_at = clock_->now();
  episode.streak = w.streak;
  episodes_.push_back(episode);
  if (w.streak >= policy_.max_consecutive_restarts) {
    w.gave_up = true;
    ++gave_up_;
    ALOG(kError, "supervisor")
        << "giving up on container " << id << " after " << w.streak
        << " consecutive restarts";
    return;
  }
  SimDuration delay = policy_.backoff.DelayFor(w.streak, rng_);
  w.restart_pending = true;
  ALOG(kWarning, "supervisor")
      << "container " << id << " crashed (streak " << w.streak
      << "); restarting in " << ToMillis(delay) << " ms";
  ArmRestart(id, w, clock_->now() + delay);
}

void ContainerSupervisor::ArmRestart(ContainerId id, Watched& w,
                                     SimTime when) {
  w.restart_event =
      clock_->ScheduleAt(when, [this, id] { AttemptRestart(id); });
}

void ContainerSupervisor::AttemptRestart(ContainerId id) {
  auto it = watched_.find(id);
  if (it == watched_.end()) {
    return;  // Unwatched while the restart was pending.
  }
  Watched& w = it->second;
  w.restart_pending = false;
  w.restart_event = 0;
  ++w.streak;
  Status status = runtime_->StartContainer(id);
  if (!status.ok()) {
    ALOG(kError, "supervisor")
        << "restart of container " << id << " failed: " << status.ToString();
    // Treat a failed start like an immediate crash of the new life.
    w.last_start = clock_->now();
    OnCrash(id);
    return;
  }
  w.last_start = clock_->now();
  ++restarts_;
  episodes_.back().restarted_at = clock_->now();
  ALOG(kInfo, "supervisor") << "container " << id << " restarted";
}

template <class Ar>
Status ContainerSupervisor::Visit(Ar& ar) {
  ar.Section("SUPV");
  rng_.Visit(ar);
  ar.U64(restarts_);
  ar.U64(gave_up_);
  ar.Match(watched_.size(), "supervisor watch-table size");
  for (auto& [id, watched] : watched_) {
    ar.Match(id, "supervisor watched container");
    ar.U32(watched.streak);
    ar.I64(watched.last_start);
    ar.Bool(watched.restart_pending);
    // A restart is pending exactly while its event is armed, so only a
    // pending restart offers a re-arm, and a timer table that names any
    // other fails to restore.
    if (watched.restart_pending) {
      ar.Timer("sup." + std::to_string(id), watched.restart_event,
               [this, id, &watched](SimTime when) {
                 ArmRestart(id, watched, when);
               });
    }
    ar.Bool(watched.gave_up);
  }
  ar.Seq(episodes_, [&](RestartEpisode& episode) {
    ar.I64(episode.id);
    ar.I64(episode.crashed_at);
    ar.I64(episode.restarted_at);
    ar.U32(episode.streak);
  });
  return ar.status();
}

template Status ContainerSupervisor::Visit(SaveArchive&);
template Status ContainerSupervisor::Visit(LoadArchive&);

}  // namespace androne
