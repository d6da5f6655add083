// Cloud-side stores (paper §4, Figure 3):
//  * Virtual Drone Repository (VDR): preconfigured/suspended virtual drones
//    for later reuse, resume, or redeployment on different physical
//    hardware. Each entry holds the definition, the exported container
//    image and the tenancy progress as values; the definition's Figure 2
//    JSON is the wire format, produced only when someone asks for text.
//  * CloudStorage: per-user flight artifacts (files apps marked for the
//    user), retrieved on demand after the flight.
//  * AppStore: published AnDrone app packages with their manifests.
#ifndef SRC_CLOUD_VDR_H_
#define SRC_CLOUD_VDR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/definition.h"
#include "src/util/status.h"

namespace androne {

// VDC progress snapshot (waypoints served, allotments used) so a resumed
// virtual drone continues where it left off on another flight. The zero
// defaults are a virtual drone that has never flown.
struct VirtualDroneProgress {
  size_t waypoints_served = 0;
  double energy_used_j = 0;
  double time_used_s = 0;
  bool reached_first_waypoint = false;
  bool finished_last_waypoint = false;
  bool exhausted = false;
};

struct StoredVirtualDrone {
  VirtualDroneDefinition definition;
  std::vector<uint8_t> image;  // ImageStore::Export bytes; may be empty for
                               // never-flown definitions.
  bool resumable = false;      // Saved mid-task (needs the image to resume).
  VirtualDroneProgress progress;
};

class VirtualDroneRepository {
 public:
  // Saves (or overwrites) a virtual drone under its id.
  void Save(const std::string& vdrone_id, StoredVirtualDrone drone);

  StatusOr<StoredVirtualDrone> Load(const std::string& vdrone_id) const;
  Status Remove(const std::string& vdrone_id);
  std::vector<std::string> List() const;
  bool Contains(const std::string& vdrone_id) const;

 private:
  std::map<std::string, StoredVirtualDrone> drones_;
};

class CloudStorage {
 public:
  void Put(const std::string& user, const std::string& path,
           std::string content);
  StatusOr<std::string> Get(const std::string& user,
                            const std::string& path) const;
  std::vector<std::string> ListUserFiles(const std::string& user) const;

 private:
  std::map<std::string, std::map<std::string, std::string>> files_;
};

struct AppPackage {
  std::string package_name;  // e.g. "com.example.survey".
  std::string manifest_xml;  // AnDrone manifest (paper §5).
  std::string apk_blob;      // Opaque app payload installed into images.
};

class AppStore {
 public:
  Status Publish(AppPackage package);
  StatusOr<AppPackage> Fetch(const std::string& package_name) const;
  std::vector<std::string> List() const;

 private:
  std::map<std::string, AppPackage> packages_;
};

}  // namespace androne

#endif  // SRC_CLOUD_VDR_H_
