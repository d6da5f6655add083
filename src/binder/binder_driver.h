// Simulated Binder kernel driver with AnDrone's modifications (paper §4.1–2):
//
//  * Device namespaces for the context manager: each container registers its
//    own ServiceManager, and handle 0 resolves per-container, so each virtual
//    drone sees only its own service registry.
//  * PUBLISH_TO_ALL_NS ioctl: callable only by the device container; pushes a
//    service registration into every other container's ServiceManager (and,
//    via NotifyNewContextManager, into containers created later).
//  * PUBLISH_TO_DEV_CON ioctl: registers a container's ActivityManager with
//    the device container's ServiceManager under "<name>@<container-id>" so
//    shared device services can route permission checks back to the caller's
//    own ActivityManager.
//  * Transactions carry the calling process's PID, EUID, and container id
//    (the paper's small addition to the transaction data structure).
//
// Isolation invariant: a process can only transact on handles present in its
// handle table, and handles are only ever inserted by the driver when a node
// reference is legitimately delivered to the process.
//
// Fast-path layout: node ids and handles are dense, so both the driver's
// node table and each process's handle table are flat vectors indexed
// directly (O(1), no tree walks on the transaction path). Parcels are only
// deep-copied on delivery when they actually carry binder references that
// need handle swizzling; reference-free payloads (the common sensor/telemetry
// case) are delivered in place. A monotonically increasing lookup epoch is
// bumped on every event that can change what a service name resolves to
// (registration into any context manager, a new namespace appearing, process
// or container death), which lets clients cache name->handle resolutions and
// revalidate with one integer compare (see ServiceCache).
#ifndef SRC_BINDER_BINDER_DRIVER_H_
#define SRC_BINDER_BINDER_DRIVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/binder/parcel.h"
#include "src/util/status.h"

namespace androne {

// Container id 0 is the host; containers (device, flight, virtual drones)
// get positive ids from the container runtime.
using ContainerId = int32_t;
inline constexpr ContainerId kHostContainer = 0;

using Pid = int32_t;
using Uid = int32_t;

class BinderDriver;
class BinderProc;
class TraceRecorder;

// Identity of the caller, attached by the driver to every transaction.
struct BinderCallContext {
  Pid calling_pid = 0;
  Uid calling_euid = 0;
  ContainerId calling_container = kHostContainer;
};

// A userspace-implemented binder object (service or callback).
class BinderObject {
 public:
  virtual ~BinderObject() = default;

  // Handles one transaction. |data|'s read cursor starts at 0. Returning an
  // error status is delivered to the caller as a failed transaction.
  virtual Status OnTransact(uint32_t code, const Parcel& data, Parcel* reply,
                            const BinderCallContext& ctx) = 0;

  // Human-readable descriptor for debugging/introspection.
  virtual std::string descriptor() const { return "BinderObject"; }
};

// ServiceManager protocol transaction codes (shared by the userspace
// ServiceManager implementation and the driver's publish ioctls).
inline constexpr uint32_t kSmAddService = 1;
inline constexpr uint32_t kSmGetService = 2;
inline constexpr uint32_t kSmCheckService = 3;
inline constexpr uint32_t kSmListServices = 4;

// One process's view of the binder driver.
class BinderProc {
 public:
  ~BinderProc();
  BinderProc(const BinderProc&) = delete;
  BinderProc& operator=(const BinderProc&) = delete;

  Pid pid() const { return pid_; }
  Uid euid() const { return euid_; }
  ContainerId container() const { return container_; }
  bool alive() const { return alive_; }

  // Publishes a local object; returns a handle (in this process's table)
  // that can be written into parcels to share the object.
  BinderHandle RegisterObject(std::shared_ptr<BinderObject> object);

  // Synchronous transaction on |handle|. Handle 0 targets this container's
  // context manager.
  StatusOr<Parcel> Transact(BinderHandle handle, uint32_t code,
                            const Parcel& data);

  // Registers the object behind |handle| as this container's context
  // manager. Fails if the container already has one (Binder allows exactly
  // one per device namespace).
  Status SetContextManager(BinderHandle handle);

  // The driver's current service-lookup epoch (see BinderDriver) — lets a
  // process revalidate cached name->handle resolutions cheaply.
  uint64_t lookup_epoch() const;

  // --- AnDrone ioctls (paper §4.2) ---

  // Publishes the service |name| -> |handle| into every *other* container
  // that currently has a context manager, and remembers it for containers
  // created later. Only the device container may call this.
  Status PublishToAllNamespaces(const std::string& name, BinderHandle handle);

  // Registers |name| + calling container id with the device container's
  // ServiceManager (used for per-container ActivityManagers).
  Status PublishToDeviceContainer(const std::string& name,
                                  BinderHandle handle);

 private:
  friend class BinderDriver;

  BinderProc(BinderDriver* driver, Pid pid, Uid euid, ContainerId container)
      : driver_(driver), pid_(pid), euid_(euid), container_(container) {
    handles_.push_back(0);  // Index 0 reserved: handle 0 = context manager.
  }

  BinderDriver* driver_;
  Pid pid_;
  Uid euid_;
  ContainerId container_;
  bool alive_ = true;
  // Handle table: index = handle, value = node id (0 = unassigned slot).
  // Handle 0 is reserved for the per-container context manager. Handles are
  // allocated densely and never reused, so the vector doubles as the
  // allocator — resolution is a bounds check plus one indexed load.
  std::vector<BinderNodeId> handles_;
  std::unordered_map<BinderNodeId, BinderHandle> handle_by_node_;
};

class BinderDriver {
 public:
  BinderDriver() { nodes_.emplace_back(); }  // Node id 0 reserved (invalid).
  BinderDriver(const BinderDriver&) = delete;
  BinderDriver& operator=(const BinderDriver&) = delete;

  // Creates a process in |container|. The returned pointer stays owned by
  // the driver; call DestroyProcess (or let container teardown do it).
  BinderProc* CreateProcess(Pid pid, Uid euid, ContainerId container);

  // Tears down a process: its handles die; nodes it owns become dead (any
  // transaction on them fails with UNAVAILABLE, like a binder death notice).
  void DestroyProcess(Pid pid);

  // Tears down every process of a container (container stop).
  void DestroyContainer(ContainerId container);

  // Marks which container is the device container (gates the publish ioctl).
  void set_device_container(ContainerId id) { device_container_ = id; }
  ContainerId device_container() const { return device_container_; }

  // Called by the container runtime when a new container's context manager
  // registers, so previously published global services get injected.
  // (Wired automatically inside SetContextManager.)

  // Introspection for tests/diagnostics.
  bool HasContextManager(ContainerId container) const;
  size_t process_count() const { return procs_.size(); }
  std::vector<std::pair<std::string, ContainerId>> published_services() const;

  // Total transactions dispatched (drives the runtime-overhead accounting).
  uint64_t transaction_count() const { return transaction_count_; }

  // Fast-path split of transaction_count(): parcels delivered in place
  // (no binder references, no handle swizzling) vs deep-copied/translated.
  uint64_t fast_path_transactions() const { return fast_path_transactions_; }
  uint64_t translated_transactions() const {
    return transaction_count_ - fast_path_transactions_;
  }

  // Checkpoint/restore (DESIGN.md §13): the dispatch counters (the
  // process/handle tables are rebuilt by the restoring world's boot).
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.U64(transaction_count_);
    ar.U64(fast_path_transactions_);
    ar.U64(lookup_epoch_);
    return ar.status();
  }

  // Attaches the binder trace category: every dispatched transaction
  // records a begin/end span stamped with the calling container and
  // whether the parcel took the fast (untranslated) path. Nested
  // transactions nest their spans. Pass nullptr to detach.
  void SetTrace(TraceRecorder* trace);

  // Bumped whenever a name lookup could resolve differently than before:
  // a registration reaching any context manager (including re-registration
  // under an existing name), a namespace gaining a context manager, or a
  // process/container dying. Cached resolutions made at epoch E stay valid
  // exactly while lookup_epoch() == E.
  uint64_t lookup_epoch() const { return lookup_epoch_; }
  // For a restore that tears down processes the saved epoch already counts.
  void set_lookup_epoch(uint64_t epoch) { lookup_epoch_ = epoch; }

 private:
  friend class BinderProc;

  struct Node {
    std::shared_ptr<BinderObject> object;
    Pid owner_pid = 0;
    ContainerId owner_container = kHostContainer;
    bool dead = false;
    bool is_context_manager = false;
  };

  struct PublishedService {
    std::string name;
    BinderNodeId node;
  };

  StatusOr<Parcel> Transact(BinderProc& caller, BinderHandle handle,
                            uint32_t code, const Parcel& data);

  // Delivers |data| to |recipient|: validates/swizzles binder entries from
  // sender handles to node ids to recipient handles. Only called for
  // parcels that contain binder entries; others are delivered in place.
  StatusOr<Parcel> TranslateParcel(BinderProc& sender, BinderProc& recipient,
                                   const Parcel& data);

  BinderHandle HandleForNode(BinderProc& proc, BinderNodeId node);

  // Sends an ADD_SERVICE transaction to |container|'s context manager on
  // behalf of the driver (used by the publish ioctls).
  Status InjectServiceRegistration(ContainerId container,
                                   const std::string& name, BinderNodeId node);

  StatusOr<BinderNodeId> NodeFromHandle(BinderProc& proc, BinderHandle handle);

  // Flat-table accessor; nullptr for out-of-range or reserved id 0.
  Node* FindNode(BinderNodeId id) {
    return (id == 0 || id >= nodes_.size()) ? nullptr : &nodes_[id];
  }
  const Node* FindNode(BinderNodeId id) const {
    return (id == 0 || id >= nodes_.size()) ? nullptr : &nodes_[id];
  }

  BinderProc* FindContextManagerProc(ContainerId container);

  std::map<Pid, std::unique_ptr<BinderProc>> procs_;
  // Node table: index = node id (dense, never reused; slot 0 reserved).
  std::vector<Node> nodes_;
  // Per-container context manager node (device namespace -> handle 0).
  std::map<ContainerId, BinderNodeId> context_managers_;
  // Services published with PUBLISH_TO_ALL_NS, replayed into new containers.
  std::vector<PublishedService> global_services_;
  ContainerId device_container_ = -1;
  uint64_t transaction_count_ = 0;
  uint64_t fast_path_transactions_ = 0;
  uint64_t lookup_epoch_ = 0;
  int transact_depth_ = 0;
  TraceRecorder* trace_ = nullptr;
  uint32_t txn_name_ = 0;
};

}  // namespace androne

#endif  // SRC_BINDER_BINDER_DRIVER_H_
