// Byte-stable world-state serialization primitives (DESIGN.md §13).
//
// A snapshot is a flat little-endian byte stream of fixed-width fields
// grouped into tagged sections. Writing is a pure function of component
// state, and restoring writes back exactly the fields that were saved, so
// save → restore → save is a byte fixed point — the recovery path asserts
// that on every restore.
//
// Pending clock events need special handling: SimClock heap entries hold
// closures and cannot be serialized. Instead every component that keeps a
// timer armed reports it to a TimerRegistry under a stable string key
// (deadline + the clock's FIFO sequence stamp); the registry persists the
// table sorted by sequence, which captures the relative dispatch order of
// same-deadline events without persisting raw sequence numbers (raw stamps
// are not stable across a restore). On restore, the load binds each key
// the components visit to its re-arm handler in a TimerRearmer; replaying
// the table in saved order re-schedules every timer at its absolute
// deadline with fresh sequence stamps in the original relative order.
#ifndef SRC_SNAPSHOT_SNAPSHOT_H_
#define SRC_SNAPSHOT_SNAPSHOT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"
#include "src/util/time.h"

namespace androne {

// Fixed-width fields travel as whole words: one copy of the native bytes,
// which is the wire's little-endian layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "snapshots are little-endian; a word copy must match it");

class SnapshotWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  // Doubles are persisted as their raw bit pattern: restore must reproduce
  // the value bit-exactly, not to printf-and-parse precision.
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U64(s.size());
    buf_.append(s.data(), s.size());
  }
  void Bytes(const void* data, size_t size) {
    U64(size);
    buf_.append(static_cast<const char*>(data), size);
  }
  // Section delimiter: a 4-char tag the reader verifies, so a drifted
  // save/restore pairing fails loudly at the first misaligned section
  // instead of silently deserializing garbage.
  void Section(const char tag[5]) { buf_.append(tag, 4); }

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    char word[sizeof(T)];
    std::memcpy(word, &v, sizeof(T));
    buf_.append(word, sizeof(T));
  }

  std::string buf_;
};

class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* out);
  Status U32(uint32_t* out);
  Status U64(uint64_t* out);
  Status I64(int64_t* out);
  Status Bool(bool* out);
  Status F64(double* out);
  Status Str(std::string* out);
  Status BytesInto(std::vector<uint8_t>* out);
  Status Section(const char tag[5]);

  // Advances past |n| bytes without decoding them (bulk consumers that
  // parse a region out-of-band, e.g. the replay log's fixed-width ticks).
  Status Skip(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n);
  template <typename T>
  Status ReadLe(T* out) {
    RETURN_IF_ERROR(Need(sizeof(T)));
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return OkStatus();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// Save-side collection of armed timers. Components report each pending
// event under a stable key; Persist() writes the table ordered by the
// clock's FIFO sequence stamp (ties cannot occur — stamps are unique).
class TimerRegistry {
 public:
  void Add(std::string key, SimTime when, uint64_t seq) {
    entries_.push_back(Entry{std::move(key), when, seq});
  }
  void Persist(SnapshotWriter& w);
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string key;
    SimTime when;
    uint64_t seq;
  };
  std::vector<Entry> entries_;
};

// Restore-side dispatch: LoadArchive registers one handler per timer key
// the load visits; Replay() walks the persisted table in order, invoking
// each handler at its saved absolute deadline. The handler re-schedules on
// the live clock, which re-establishes the original relative dispatch order
// because sequence stamps are assigned in scheduling order. Each handler
// runs at most once: the table is untrusted bytes, so a key the restored
// state does not hold, or one the table names twice, fails the replay.
class TimerRearmer {
 public:
  using Handler = std::function<void(SimTime when)>;

  void Register(std::string key, Handler handler) {
    handlers_[std::move(key)] = std::move(handler);
  }
  Status Replay(SnapshotReader& r);

 private:
  std::map<std::string, Handler> handlers_;
};

}  // namespace androne

#endif  // SRC_SNAPSHOT_SNAPSHOT_H_
