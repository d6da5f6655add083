#include "src/cloud/vdr.h"

namespace androne {

void VirtualDroneRepository::Save(const std::string& vdrone_id,
                                  StoredVirtualDrone drone) {
  drones_[vdrone_id] = std::move(drone);
}

StatusOr<StoredVirtualDrone> VirtualDroneRepository::Load(
    const std::string& vdrone_id) const {
  auto it = drones_.find(vdrone_id);
  if (it == drones_.end()) {
    return NotFoundError("no virtual drone '" + vdrone_id + "' in the VDR");
  }
  return it->second;
}

Status VirtualDroneRepository::Remove(const std::string& vdrone_id) {
  if (drones_.erase(vdrone_id) == 0) {
    return NotFoundError("no virtual drone '" + vdrone_id + "' in the VDR");
  }
  return OkStatus();
}

std::vector<std::string> VirtualDroneRepository::List() const {
  std::vector<std::string> ids;
  ids.reserve(drones_.size());
  for (const auto& [id, drone] : drones_) {
    ids.push_back(id);
  }
  return ids;
}

bool VirtualDroneRepository::Contains(const std::string& vdrone_id) const {
  return drones_.count(vdrone_id) > 0;
}

void CloudStorage::Put(const std::string& user, const std::string& path,
                       std::string content) {
  files_[user][path] = std::move(content);
}

StatusOr<std::string> CloudStorage::Get(const std::string& user,
                                        const std::string& path) const {
  auto user_it = files_.find(user);
  if (user_it == files_.end()) {
    return NotFoundError("no files for user '" + user + "'");
  }
  auto file_it = user_it->second.find(path);
  if (file_it == user_it->second.end()) {
    return NotFoundError("no file '" + path + "' for user '" + user + "'");
  }
  return file_it->second;
}

std::vector<std::string> CloudStorage::ListUserFiles(
    const std::string& user) const {
  std::vector<std::string> paths;
  auto it = files_.find(user);
  if (it == files_.end()) {
    return paths;
  }
  paths.reserve(it->second.size());
  for (const auto& [path, content] : it->second) {
    paths.push_back(path);
  }
  return paths;
}

Status AppStore::Publish(AppPackage package) {
  if (package.package_name.empty()) {
    return InvalidArgumentError("app package needs a name");
  }
  packages_[package.package_name] = std::move(package);
  return OkStatus();
}

StatusOr<AppPackage> AppStore::Fetch(const std::string& package_name) const {
  auto it = packages_.find(package_name);
  if (it == packages_.end()) {
    return NotFoundError("no app '" + package_name + "' in the store");
  }
  return it->second;
}

std::vector<std::string> AppStore::List() const {
  std::vector<std::string> names;
  names.reserve(packages_.size());
  for (const auto& [name, package] : packages_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace androne
