#include "src/container/container.h"

namespace androne {

const char* ContainerKindName(ContainerKind kind) {
  switch (kind) {
    case ContainerKind::kVirtualDrone:
      return "virtual-drone";
    case ContainerKind::kDevice:
      return "device";
    case ContainerKind::kFlight:
      return "flight";
  }
  return "unknown";
}

void Container::WriteFile(const std::string& path, std::string content) {
  writable_layer_[path] = LayerFile{std::move(content), false};
}

void Container::DeleteFile(const std::string& path) {
  writable_layer_[path] = LayerFile{"", true};
}

StatusOr<std::string> Container::ReadFile(const std::string& path) const {
  auto it = writable_layer_.find(path);
  if (it != writable_layer_.end()) {
    if (it->second.tombstone) {
      return NotFoundError("'" + path + "' was deleted in container " + name_);
    }
    return it->second.content;
  }
  ASSIGN_OR_RETURN(auto view, store_->Flatten(image_));
  auto base = view.find(path);
  if (base == view.end()) {
    return NotFoundError("no file '" + path + "' in container " + name_);
  }
  return base->second;
}

StatusOr<const ContainerProcess*> Container::FindProcess(
    const std::string& name) const {
  for (const ContainerProcess& p : processes_) {
    if (p.name == name) {
      return &p;
    }
  }
  return NotFoundError("no process '" + name + "' in container " + name_);
}

double Container::BaseMemoryMb() const {
  switch (kind_) {
    case ContainerKind::kVirtualDrone:
      return kVirtualDroneBaseMemoryMb;
    case ContainerKind::kDevice:
      return kDeviceContainerBaseMemoryMb;
    case ContainerKind::kFlight:
      return kFlightContainerBaseMemoryMb;
  }
  return 0.0;
}

double Container::MemoryUsageMb() const {
  if (state_ != ContainerState::kRunning) {
    return 0.0;
  }
  return BaseMemoryMb() +
         kPerProcessMemoryMb * static_cast<double>(processes_.size());
}

double Container::MemoryRequirementMb() const {
  size_t procs = processes_.empty() ? DefaultProcessNames(kind_).size()
                                    : processes_.size();
  return BaseMemoryMb() + kPerProcessMemoryMb * static_cast<double>(procs);
}

std::vector<std::string> DefaultProcessNames(ContainerKind kind) {
  switch (kind) {
    case ContainerKind::kVirtualDrone:
      return {"init", "servicemanager", "zygote", "system_server", "launcher"};
    case ContainerKind::kDevice:
      return {"init", "servicemanager", "system_server"};
    case ContainerKind::kFlight:
      return {"init", "ardupilot", "mavproxy"};
  }
  return {};
}

}  // namespace androne
