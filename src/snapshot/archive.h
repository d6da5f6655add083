// Bidirectional state archives (DESIGN.md §13).
//
// Every stateful component lists its snapshot fields exactly once, in a
//
//   template <class Ar> Status Visit(Ar& ar);
//
// member, and the two concrete archives below give that one list its two
// meanings: SaveArchive appends each field to a SnapshotWriter and reports
// armed timers to a TimerRegistry; LoadArchive reads each field back into
// the same member from a SnapshotReader, binds each timer key to its
// re-arm in a TimerRearmer, and keeps the first error (every later
// primitive is then a no-op, and Visit returns ar.status()). Save and
// restore therefore cannot disagree on order, width, presence or timers.
//
// Both archives are concrete with inline primitives and every Visit is
// instantiated once per archive, so a field costs what one hand-written
// SnapshotWriter/SnapshotReader call did: no virtual dispatch and no
// std::function per field. Direction-specific work (rebuilding a payload,
// re-interning a name) sits behind `if constexpr (Ar::kLoading)`.
//
// Load never lets a value from the blob size or index anything unchecked:
// container lengths are bounded by the bytes left, enums are range-checked,
// and presence flags and roster sizes must match the restoring world — a
// truncated or hostile blob yields a Status, never a crash.
#ifndef SRC_SNAPSHOT_ARCHIVE_H_
#define SRC_SNAPSHOT_ARCHIVE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/snapshot/snapshot.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"

namespace androne {

// Enums travel as one byte when their underlying type is one byte wide and
// as four bytes otherwise.
template <class E>
using EnumWire = std::conditional_t<sizeof(E) == 1, uint8_t, uint32_t>;

class SaveArchive {
 public:
  static constexpr bool kLoading = false;

  SaveArchive(SnapshotWriter& w, TimerRegistry& timers, const SimClock& clock)
      : w_(w), timers_(timers), clock_(clock) {}

  bool ok() const { return true; }
  Status status() const { return Status(); }
  void Fail(const Status&) {}

  void Section(const char tag[5]) { w_.Section(tag); }
  template <class T>
  void U8(const T& v) { w_.U8(static_cast<uint8_t>(v)); }
  template <class T>
  void U32(const T& v) { w_.U32(static_cast<uint32_t>(v)); }
  template <class T>
  void U64(const T& v) { w_.U64(static_cast<uint64_t>(v)); }
  template <class T>
  void I64(const T& v) { w_.I64(static_cast<int64_t>(v)); }
  template <class T>
  void F64(const T& v) { w_.F64(static_cast<double>(v)); }
  void Bool(bool v) { w_.Bool(v); }
  void Str(const std::string& v) { w_.Str(v); }
  void Bytes(const std::vector<uint8_t>& v) { w_.Bytes(v.data(), v.size()); }

  template <class E>
  void Enum(const E& v, E /*max*/) {
    if constexpr (sizeof(EnumWire<E>) == 1) {
      w_.U8(static_cast<uint8_t>(v));
    } else {
      w_.U32(static_cast<uint32_t>(v));
    }
  }

  // Container length; the load side bounds it by the bytes remaining.
  uint64_t Size(uint64_t live) {
    w_.U64(live);
    return live;
  }
  // Presence of an optional component; the load side fails unless the
  // restoring world has the same structure.
  bool Present(bool live, const char* /*what*/) {
    w_.Bool(live);
    return live;
  }
  // A roster size or identity that the restoring world must already match.
  void Match(uint64_t live, const char* /*what*/) { w_.U64(live); }
  void Match(const std::string& live, const char* /*what*/) { w_.Str(live); }

  // Reports |id| under |key| when it is pending; returns whether it was.
  // |rearm| is the load side's; a save never calls it.
  template <class Rearm>
  bool Timer(std::string_view key, const EventId& id, Rearm&& /*rearm*/) {
    SimTime when = 0;
    uint64_t seq = 0;
    if (id == 0 || !clock_.PendingInfo(id, &when, &seq)) {
      return false;
    }
    timers_.Add(std::string(key), when, seq);
    return true;
  }

  // An optional value: a presence byte, then the value when present.
  template <class T, class F>
  void Optional(std::optional<T>& v, F&& visit) {
    w_.Bool(v.has_value());
    if (v.has_value()) {
      visit(*v);
    }
  }
  // A sequence container: its length, then each element.
  template <class C, class F>
  void Seq(C& c, F&& visit) {
    w_.U64(c.size());
    for (auto& e : c) {
      visit(e);
    }
  }
  // A map: its length, then each (key, value) in key order. |visit| takes
  // the key as `auto&` (const here, writable on load).
  template <class M, class F>
  void Map(M& m, F&& visit) {
    w_.U64(m.size());
    for (auto& [k, v] : m) {
      visit(k, v);
    }
  }

 private:
  SnapshotWriter& w_;
  TimerRegistry& timers_;
  const SimClock& clock_;
};

class LoadArchive {
 public:
  static constexpr bool kLoading = true;

  // Fills |timers| with a re-arm handler per timer the visit names.
  LoadArchive(SnapshotReader& r, TimerRearmer& timers)
      : r_(r), timers_(timers) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  // Keeps |s| when it is the first error.
  void Fail(Status s) {
    if (status_.ok() && !s.ok()) {
      status_ = std::move(s);
    }
  }

  void Section(const char tag[5]) {
    if (ok()) {
      Fail(r_.Section(tag));
    }
  }
  template <class T>
  void U8(T& v) { Read<uint8_t>(&SnapshotReader::U8, v); }
  template <class T>
  void U32(T& v) { Read<uint32_t>(&SnapshotReader::U32, v); }
  template <class T>
  void U64(T& v) { Read<uint64_t>(&SnapshotReader::U64, v); }
  template <class T>
  void I64(T& v) { Read<int64_t>(&SnapshotReader::I64, v); }
  template <class T>
  void F64(T& v) { Read<double>(&SnapshotReader::F64, v); }
  void Bool(bool& v) { Read<bool>(&SnapshotReader::Bool, v); }
  void Str(std::string& v) {
    if (ok()) {
      Fail(r_.Str(&v));
    }
  }
  void Bytes(std::vector<uint8_t>& v) {
    if (ok()) {
      Fail(r_.BytesInto(&v));
    }
  }

  template <class E>
  void Enum(E& v, E max) {
    EnumWire<E> raw = 0;
    if constexpr (sizeof(raw) == 1) {
      U8(raw);
    } else {
      U32(raw);
    }
    if (ok() && raw > static_cast<EnumWire<E>>(max)) {
      Fail(InvalidArgumentError(
          "snapshot enum value " + std::to_string(raw) + " out of range at " +
          "offset " + std::to_string(r_.position())));
    }
    if (ok()) {
      v = static_cast<E>(raw);
    }
  }

  uint64_t Size(uint64_t /*live*/) {
    uint64_t n = 0;
    U64(n);
    if (ok() && n > r_.remaining()) {
      Fail(InvalidArgumentError(
          "snapshot container length " + std::to_string(n) + " exceeds the " +
          std::to_string(r_.remaining()) + " bytes left"));
    }
    return ok() ? n : 0;
  }
  bool Present(bool live, const char* what) {
    bool saved = live;
    Bool(saved);
    if (ok() && saved != live) {
      Fail(InvalidArgumentError(std::string("checkpoint ") + what +
                                " presence mismatch: snapshot " +
                                (saved ? "has" : "lacks") +
                                " it, restoring world " +
                                (live ? "has" : "lacks") + " it"));
    }
    return ok() && live;
  }
  void Match(uint64_t live, const char* what) {
    uint64_t saved = live;
    U64(saved);
    if (ok() && saved != live) {
      Fail(InvalidArgumentError(std::string("checkpoint ") + what +
                                " mismatch: snapshot has " +
                                std::to_string(saved) +
                                ", restoring world has " +
                                std::to_string(live)));
    }
  }
  void Match(const std::string& live, const char* what) {
    std::string saved;
    Str(saved);
    if (ok() && saved != live) {
      Fail(InvalidArgumentError(std::string("checkpoint ") + what +
                                " mismatch: snapshot has '" + saved +
                                "', restoring world has '" + live + "'"));
    }
  }

  // Restore drops every pending event; TimerRearmer::Replay calls
  // |rearm(when)|, which re-schedules the event and stores its id, when the
  // timer table names |key|.
  template <class Rearm>
  bool Timer(std::string_view key, EventId& id, Rearm&& rearm) {
    id = 0;
    timers_.Register(std::string(key), std::forward<Rearm>(rearm));
    return false;
  }

  template <class T, class F>
  void Optional(std::optional<T>& v, F&& visit) {
    bool present = false;
    Bool(present);
    v.reset();
    if (ok() && present) {
      visit(v.emplace());
    }
  }
  template <class C, class F>
  void Seq(C& c, F&& visit) {
    const uint64_t n = Size(0);
    c.clear();
    c.resize(n);
    for (auto& e : c) {
      if (!ok()) {
        break;
      }
      visit(e);
    }
  }
  template <class M, class F>
  void Map(M& m, F&& visit) {
    const uint64_t n = Size(0);
    m.clear();
    for (uint64_t i = 0; i < n && ok(); ++i) {
      typename M::key_type key{};
      typename M::mapped_type value{};
      visit(key, value);
      if (ok()) {
        m.emplace(std::move(key), std::move(value));
      }
    }
  }

 private:
  template <class Raw, class T>
  void Read(Status (SnapshotReader::*read)(Raw*), T& v) {
    Raw raw{};
    if (ok()) {
      Fail((r_.*read)(&raw));
    }
    if (ok()) {
      v = static_cast<T>(raw);
    }
  }

  SnapshotReader& r_;
  TimerRearmer& timers_;
  Status status_;
};

}  // namespace androne

#endif  // SRC_SNAPSHOT_ARCHIVE_H_
