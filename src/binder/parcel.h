// Parcel: the typed payload of a Binder transaction. Mirrors Android's
// Parcel semantics at the level AnDrone needs: primitive values, strings,
// binder object references (translated to per-process handles by the
// driver on delivery), and file descriptors (shared-memory tokens used by
// e.g. CameraService to hand frame buffers across containers).
#ifndef SRC_BINDER_PARCEL_H_
#define SRC_BINDER_PARCEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace androne {

// A per-process binder handle. Handle 0 always names the process's context
// manager (its container's ServiceManager).
using BinderHandle = int32_t;
inline constexpr BinderHandle kContextManagerHandle = 0;

// Driver-global node identity (not visible to userspace in real Binder;
// used internally for handle translation).
using BinderNodeId = uint64_t;

// Opaque token standing in for a passed file descriptor (e.g. an ashmem
// region with camera frames).
using FdToken = int64_t;

class Parcel {
 public:
  Parcel() = default;
  Parcel(const Parcel& other) = default;
  Parcel& operator=(const Parcel& other) = default;
  Parcel(Parcel&& other) noexcept;
  Parcel& operator=(Parcel&& other) noexcept;

  void WriteInt32(int32_t v);
  void WriteInt64(int64_t v);
  void WriteDouble(double v);
  void WriteBool(bool v);
  void WriteString(const std::string& s);
  // Writes a reference to a binder object *the sender owns a handle to*
  // (or kContextManagerHandle). The driver validates the handle against the
  // sender's table and swizzles it to a recipient handle on delivery —
  // userspace can never forge a reference to a node it was not given.
  void WriteBinderHandle(BinderHandle handle);
  void WriteFd(FdToken fd);

  // Sequential readers; fail with OUT_OF_RANGE past the end and with
  // INVALID_ARGUMENT on a type mismatch.
  StatusOr<int32_t> ReadInt32() const;
  StatusOr<int64_t> ReadInt64() const;
  StatusOr<double> ReadDouble() const;
  StatusOr<bool> ReadBool() const;
  StatusOr<std::string> ReadString() const;
  // After delivery, binder entries hold the *recipient's* handle.
  StatusOr<BinderHandle> ReadBinderHandle() const;
  StatusOr<FdToken> ReadFd() const;

  void ResetReadCursor() const { cursor_ = 0; }
  size_t entry_count() const { return entries_.size(); }
  // Binder-reference entries present (the driver only deep-copies parcels
  // that carry references, since only those need handle swizzling).
  size_t binder_entry_count() const { return binder_entries_; }

 private:
  friend class BinderDriver;

  enum class Kind { kInt32, kInt64, kDouble, kBool, kString, kBinder, kFd };

  struct Entry {
    Kind kind;
    int64_t scalar = 0;  // Also carries node id / handle for kBinder.
    double real = 0.0;
    std::string text;
  };

  StatusOr<const Entry*> Next(Kind expected) const;
  // Driver-side append of a binder reference (keeps binder_entries_ honest
  // when the driver builds delivery parcels directly).
  void AppendBinderEntry(int64_t scalar);

  std::vector<Entry> entries_;
  mutable size_t cursor_ = 0;
  size_t binder_entries_ = 0;
};

}  // namespace androne

#endif  // SRC_BINDER_PARCEL_H_
