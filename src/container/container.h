// A Linux container instance as AnDrone uses them (paper §4): an isolated
// set of processes sharing one kernel, with its own Binder device namespace,
// a copy-on-write filesystem over a layered image, and accounted memory.
#ifndef SRC_CONTAINER_CONTAINER_H_
#define SRC_CONTAINER_CONTAINER_H_

#include <map>
#include <string>
#include <vector>

#include "src/binder/binder_driver.h"
#include "src/container/image_store.h"
#include "src/util/status.h"

namespace androne {

// What runs inside the container (paper Figure 3).
enum class ContainerKind {
  kVirtualDrone,  // Android Things virtual drone instance.
  kDevice,        // Minimal Android instance hosting device services.
  kFlight,        // Real-time Linux + ArduPilot flight stack.
};

const char* ContainerKindName(ContainerKind kind);

enum class ContainerState {
  kCreated,
  kRunning,
  kStopped,
  kCrashed,  // Processes died abnormally; restartable by a supervisor.
};

// Memory model (calibrated to paper §6.3 / Figure 12): ~100 MB for host OS
// + VDC, ~150 MB for device + flight containers combined, ~185 MB per
// virtual drone, out of 880 MB usable RAM (1 GB minus GPU/peripheral
// reservations).
inline constexpr double kHostBaseMemoryMb = 95.0;
inline constexpr double kPerProcessMemoryMb = 8.0;
inline constexpr double kVirtualDroneBaseMemoryMb = 145.0;
inline constexpr double kDeviceContainerBaseMemoryMb = 66.0;
inline constexpr double kFlightContainerBaseMemoryMb = 36.0;
inline constexpr double kUsableMemoryMb = 880.0;

// A process inside a container. Owns a BinderProc endpoint.
struct ContainerProcess {
  Pid pid = 0;
  std::string name;
  BinderProc* binder = nullptr;  // Owned by the BinderDriver.
};

// The processes a container of the given kind boots with:
//  * virtual drone: init, servicemanager, zygote, system_server, launcher;
//  * device container: init, servicemanager, system_server (device services);
//  * flight container: init, ardupilot, mavproxy.
std::vector<std::string> DefaultProcessNames(ContainerKind kind);

class ContainerRuntime;

class Container {
 public:
  ContainerId id() const { return id_; }
  const std::string& name() const { return name_; }
  ContainerKind kind() const { return kind_; }
  ContainerState state() const { return state_; }
  ImageId image() const { return image_; }

  // --- Filesystem (copy-on-write over the image) ---

  // Writes into the writable layer.
  void WriteFile(const std::string& path, std::string content);
  // Deletes (whiteout over lower layers).
  void DeleteFile(const std::string& path);
  // Reads through the writable layer into the image.
  StatusOr<std::string> ReadFile(const std::string& path) const;
  const LayerFiles& writable_layer() const { return writable_layer_; }

  // --- Processes ---

  const std::vector<ContainerProcess>& processes() const { return processes_; }
  StatusOr<const ContainerProcess*> FindProcess(const std::string& name) const;

  // Memory in use: base (by kind) + per-process, 0 when not running.
  double MemoryUsageMb() const;

  // Memory this container will need when started.
  double MemoryRequirementMb() const;

  // How many times this container has crashed over its lifetime.
  uint64_t crash_count() const { return crash_count_; }

 private:
  friend class ContainerRuntime;

  Container(ContainerId id, std::string name, ContainerKind kind,
            ImageId image, const ImageStore* store)
      : id_(id), name_(std::move(name)), kind_(kind), image_(image),
        store_(store) {}

  double BaseMemoryMb() const;

  ContainerId id_;
  std::string name_;
  ContainerKind kind_;
  ImageId image_;
  const ImageStore* store_;
  ContainerState state_ = ContainerState::kCreated;
  LayerFiles writable_layer_;
  std::vector<ContainerProcess> processes_;
  uint64_t crash_count_ = 0;
};

}  // namespace androne

#endif  // SRC_CONTAINER_CONTAINER_H_
