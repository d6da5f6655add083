#include "src/container/runtime.h"

#include <algorithm>

#include "src/obs/trace.h"
#include "src/snapshot/archive.h"
#include "src/util/logging.h"

namespace androne {

ContainerRuntime::ContainerRuntime(BinderDriver* driver, ImageStore* images,
                                   double memory_budget_mb)
    : driver_(driver), images_(images), memory_budget_mb_(memory_budget_mb) {}

StatusOr<Container*> ContainerRuntime::CreateContainer(const std::string& name,
                                                       ContainerKind kind,
                                                       ImageId image) {
  for (const auto& [id, container] : containers_) {
    if (container->name() == name) {
      return AlreadyExistsError("container '" + name + "' already exists");
    }
  }
  RETURN_IF_ERROR(images_->LayersOf(image).status());  // Validate image.
  ContainerId id = next_container_id_++;
  auto container = std::unique_ptr<Container>(
      new Container(id, name, kind, image, images_));
  Container* raw = container.get();
  containers_[id] = std::move(container);
  TraceLifecycle(create_name_, id);
  return raw;
}

void ContainerRuntime::SetTrace(TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    create_name_ = trace_->InternName("container.create");
    start_name_ = trace_->InternName("container.start");
    stop_name_ = trace_->InternName("container.stop");
    crash_name_ = trace_->InternName("container.crash");
    commit_name_ = trace_->InternName("container.commit");
    remove_name_ = trace_->InternName("container.remove");
  }
}

void ContainerRuntime::TraceLifecycle(uint32_t name, ContainerId id) {
  if (trace_ != nullptr && trace_->enabled(kTraceContainer)) {
    trace_->Instant(kTraceContainer, name, id);
  }
}

Status ContainerRuntime::StartContainer(ContainerId id) {
  ASSIGN_OR_RETURN(Container * container, Find(id));
  if (container->state_ == ContainerState::kRunning) {
    return FailedPreconditionError("container already running");
  }
  double needed = container->MemoryRequirementMb();
  if (MemoryUsageMb() + needed > memory_budget_mb_) {
    return ResourceExhaustedError(
        "starting '" + container->name() + "' needs " + std::to_string(needed) +
        " MB but only " +
        std::to_string(memory_budget_mb_ - MemoryUsageMb()) +
        " MB are free");
  }
  container->state_ = ContainerState::kRunning;
  for (const std::string& proc_name : DefaultProcessNames(container->kind())) {
    // System processes run as system uid (1000).
    auto proc = SpawnProcess(id, proc_name, /*euid=*/1000);
    if (!proc.ok()) {
      return proc.status();
    }
  }
  ALOG(kInfo, "runtime") << "started container '" << container->name()
                         << "' (" << ContainerKindName(container->kind())
                         << ", " << container->MemoryUsageMb() << " MB)";
  TraceLifecycle(start_name_, id);
  return OkStatus();
}

Status ContainerRuntime::StopContainer(ContainerId id) {
  ASSIGN_OR_RETURN(Container * container, Find(id));
  if (container->state_ != ContainerState::kRunning) {
    return FailedPreconditionError("container not running");
  }
  for (const ContainerProcess& proc : container->processes_) {
    process_owner_.erase(proc.pid);
  }
  container->processes_.clear();
  driver_->DestroyContainer(id);
  container->state_ = ContainerState::kStopped;
  ALOG(kInfo, "runtime") << "stopped container '" << container->name() << "'";
  TraceLifecycle(stop_name_, id);
  return OkStatus();
}

Status ContainerRuntime::CrashContainer(ContainerId id) {
  ASSIGN_OR_RETURN(Container * container, Find(id));
  if (container->state_ != ContainerState::kRunning) {
    return FailedPreconditionError("container not running");
  }
  for (const ContainerProcess& proc : container->processes_) {
    process_owner_.erase(proc.pid);
  }
  container->processes_.clear();
  driver_->DestroyContainer(id);
  container->state_ = ContainerState::kCrashed;
  ++container->crash_count_;
  ALOG(kWarning, "runtime") << "container '" << container->name()
                            << "' crashed (crash #"
                            << container->crash_count_ << ")";
  TraceLifecycle(crash_name_, id);
  if (crash_listener_) {
    crash_listener_(id);
  }
  return OkStatus();
}

StatusOr<ContainerProcess> ContainerRuntime::SpawnProcess(
    ContainerId id, const std::string& name, Uid euid) {
  ASSIGN_OR_RETURN(Container * container, Find(id));
  if (container->state_ != ContainerState::kRunning) {
    return FailedPreconditionError("container '" + container->name() +
                                   "' is not running");
  }
  // Admission-check the extra process against the memory budget.
  if (MemoryUsageMb() + kPerProcessMemoryMb > memory_budget_mb_) {
    return ResourceExhaustedError("out of memory spawning '" + name + "'");
  }
  Pid pid = AllocatePid();
  BinderProc* binder = driver_->CreateProcess(pid, euid, id);
  ContainerProcess proc{pid, name, binder};
  container->processes_.push_back(proc);
  process_owner_[pid] = id;
  return proc;
}

Status ContainerRuntime::KillProcess(Pid pid) {
  auto owner = process_owner_.find(pid);
  if (owner == process_owner_.end()) {
    return NotFoundError("no such pid " + std::to_string(pid));
  }
  ASSIGN_OR_RETURN(Container * container, Find(owner->second));
  auto& procs = container->processes_;
  procs.erase(std::remove_if(procs.begin(), procs.end(),
                             [pid](const ContainerProcess& p) {
                               return p.pid == pid;
                             }),
              procs.end());
  process_owner_.erase(owner);
  driver_->DestroyProcess(pid);
  return OkStatus();
}

StatusOr<ImageId> ContainerRuntime::Commit(ContainerId id,
                                           const std::string& new_name) {
  ASSIGN_OR_RETURN(Container * container, Find(id));
  TraceLifecycle(commit_name_, id);
  return images_->CommitDiff(container->image(), container->writable_layer_,
                             new_name);
}

Status ContainerRuntime::RemoveContainer(ContainerId id) {
  ASSIGN_OR_RETURN(Container * container, Find(id));
  if (container->state_ == ContainerState::kRunning) {
    return FailedPreconditionError("stop the container before removing it");
  }
  containers_.erase(id);
  TraceLifecycle(remove_name_, id);
  return OkStatus();
}

Status ContainerRuntime::RestoreLifecycle(Container& container,
                                          ContainerState state) {
  const ContainerId id = container.id();
  if (container.state_ == ContainerState::kRunning &&
      state != ContainerState::kRunning) {
    // The snapshot caught this container between lives: silently drop the
    // processes the restoring boot spawned (no trace, no crash listener,
    // and no lookup-epoch bump: the saved epoch already counts the crash).
    for (const ContainerProcess& proc : container.processes_) {
      process_owner_.erase(proc.pid);
    }
    container.processes_.clear();
    const uint64_t epoch = driver_->lookup_epoch();
    driver_->DestroyContainer(id);
    driver_->set_lookup_epoch(epoch);
  } else if (container.state_ != ContainerState::kRunning &&
             state == ContainerState::kRunning) {
    // The snapshot has a running life the restoring boot never started
    // (e.g. a supervisor restart preceded the checkpoint). Quietly boot the
    // default processes so process count and memory accounting match.
    container.state_ = ContainerState::kRunning;
    for (const std::string& proc_name :
         DefaultProcessNames(container.kind())) {
      RETURN_IF_ERROR(SpawnProcess(id, proc_name, /*euid=*/1000).status());
    }
  }
  container.state_ = state;
  return OkStatus();
}

template <class Ar>
Status ContainerRuntime::Visit(Ar& ar) {
  ar.Match(containers_.size(), "container roster size");
  for (auto& [id, container] : containers_) {
    ar.Match(id, "container id");
    ContainerState state = container->state_;
    ar.Enum(state, ContainerState::kCrashed);
    ar.U64(container->crash_count_);
    if constexpr (Ar::kLoading) {
      if (ar.ok()) {
        Status moved = RestoreLifecycle(*container, state);
        if (!moved.ok()) {
          ar.Fail(std::move(moved));
        }
      }
    }
  }
  ar.I64(next_container_id_);
  ar.I64(next_pid_);
  return ar.status();
}

template Status ContainerRuntime::Visit(SaveArchive&);
template Status ContainerRuntime::Visit(LoadArchive&);

StatusOr<Container*> ContainerRuntime::Find(ContainerId id) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    return NotFoundError("no container with id " + std::to_string(id));
  }
  return it->second.get();
}

StatusOr<Container*> ContainerRuntime::FindByName(const std::string& name) {
  for (const auto& [id, container] : containers_) {
    if (container->name() == name) {
      return container.get();
    }
  }
  return NotFoundError("no container named '" + name + "'");
}

std::vector<Container*> ContainerRuntime::ListContainers() {
  std::vector<Container*> out;
  out.reserve(containers_.size());
  for (const auto& [id, container] : containers_) {
    out.push_back(container.get());
  }
  return out;
}

double ContainerRuntime::MemoryUsageMb() const {
  double total = kHostBaseMemoryMb;
  for (const auto& [id, container] : containers_) {
    total += container->MemoryUsageMb();
  }
  return total;
}

}  // namespace androne
