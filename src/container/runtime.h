// Container runtime: the Docker-analog managing AnDrone's containers on the
// drone (paper §4.1). Creates containers from layered images, enforces the
// machine memory budget on start (the paper's 4th virtual drone fails to
// start but does not disturb the others), spawns processes with Binder
// endpoints in the container's device namespace, and commits writable
// layers back to images for offline storage in the VDR.
#ifndef SRC_CONTAINER_RUNTIME_H_
#define SRC_CONTAINER_RUNTIME_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/binder/binder_driver.h"
#include "src/container/container.h"
#include "src/container/image_store.h"

namespace androne {

class TraceRecorder;

class ContainerRuntime {
 public:
  // |driver| outlives the runtime. |memory_budget_mb| is usable RAM.
  ContainerRuntime(BinderDriver* driver, ImageStore* images,
                   double memory_budget_mb = kUsableMemoryMb);

  // Creates a container (state kCreated; consumes no memory yet).
  StatusOr<Container*> CreateContainer(const std::string& name,
                                       ContainerKind kind, ImageId image);

  // Starts the container: admission-checks memory, then boots its default
  // processes. Fails with RESOURCE_EXHAUSTED when memory would be exceeded,
  // leaving running containers untouched.
  Status StartContainer(ContainerId id);

  // Stops the container: kills all its processes and their Binder state.
  Status StopContainer(ContainerId id);

  // Fault hook: the container's processes die abnormally (as if init
  // segfaulted). All its processes and Binder state are torn down, the
  // state becomes kCrashed, and the crash listener (if any) fires. Sibling
  // containers are untouched. A crashed container can be StartContainer'd
  // again — that is what a supervisor does.
  Status CrashContainer(ContainerId id);

  // Observer for CrashContainer events (e.g. a ContainerSupervisor).
  using CrashListener = std::function<void(ContainerId)>;
  void SetCrashListener(CrashListener listener) {
    crash_listener_ = std::move(listener);
  }

  // Spawns an additional named process (e.g. an app) in a running
  // container. |euid| follows Android conventions (apps >= 10000).
  StatusOr<ContainerProcess> SpawnProcess(ContainerId id,
                                          const std::string& name, Uid euid);

  // Kills one process (used by the VDC to enforce device-access revocation).
  Status KillProcess(Pid pid);

  // Commits the container's writable layer onto its image under |new_name|
  // (how a virtual drone's state is persisted to the VDR).
  StatusOr<ImageId> Commit(ContainerId id, const std::string& new_name);

  // Destroys a stopped container entirely.
  Status RemoveContainer(ContainerId id);

  StatusOr<Container*> Find(ContainerId id);
  StatusOr<Container*> FindByName(const std::string& name);
  std::vector<Container*> ListContainers();

  // Total memory in use: host base + all running containers.
  double MemoryUsageMb() const;
  double memory_budget_mb() const { return memory_budget_mb_; }

  BinderDriver* binder() { return driver_; }
  ImageStore* images() { return images_; }

  // Attaches the container trace category: lifecycle transitions record
  // instant events ("container.create/start/stop/crash/commit/remove",
  // container = the affected id). Pass nullptr to detach.
  void SetTrace(TraceRecorder* trace);

  // --- Checkpoint/restore (DESIGN.md §13) ---
  // Lists each container's lifecycle coordinates (which life, how many
  // crashes) and the id allocators. The process tables are not persisted:
  // the restoring world re-runs the deterministic boot/deploy sequence, so
  // the roster must already match, and the load quietly moves each
  // container to its saved state (see RestoreLifecycle). Instantiated for
  // SaveArchive and LoadArchive in runtime.cc.
  template <class Ar>
  Status Visit(Ar& ar);

 private:
  Pid AllocatePid() { return next_pid_++; }

  void TraceLifecycle(uint32_t name, ContainerId id);
  // Quietly moves |container| to |state|: no trace events, no crash
  // listener. A running container restored as stopped/crashed drops its
  // processes so memory accounting stays truthful; one restored as running
  // re-spawns its default process set.
  Status RestoreLifecycle(Container& container, ContainerState state);

  BinderDriver* driver_;
  ImageStore* images_;
  CrashListener crash_listener_;
  double memory_budget_mb_;
  std::map<ContainerId, std::unique_ptr<Container>> containers_;
  std::map<Pid, ContainerId> process_owner_;
  ContainerId next_container_id_ = 1;
  Pid next_pid_ = 100;
  TraceRecorder* trace_ = nullptr;
  uint32_t create_name_ = 0;
  uint32_t start_name_ = 0;
  uint32_t stop_name_ = 0;
  uint32_t crash_name_ = 0;
  uint32_t commit_name_ = 0;
  uint32_t remove_name_ = 0;
};

}  // namespace androne

#endif  // SRC_CONTAINER_RUNTIME_H_
