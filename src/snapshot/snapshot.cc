#include "src/snapshot/snapshot.h"

#include <algorithm>

namespace androne {

Status SnapshotReader::Need(size_t n) {
  if (data_.size() - pos_ < n) {
    return InternalError("snapshot truncated: need " + std::to_string(n) +
                         " bytes at offset " + std::to_string(pos_) +
                         " of " + std::to_string(data_.size()));
  }
  return OkStatus();
}

Status SnapshotReader::U8(uint8_t* out) { return ReadLe(out); }
Status SnapshotReader::U32(uint32_t* out) { return ReadLe(out); }
Status SnapshotReader::U64(uint64_t* out) { return ReadLe(out); }

Status SnapshotReader::I64(int64_t* out) {
  uint64_t bits;
  RETURN_IF_ERROR(ReadLe(&bits));
  *out = static_cast<int64_t>(bits);
  return OkStatus();
}

Status SnapshotReader::Bool(bool* out) {
  uint8_t v;
  RETURN_IF_ERROR(U8(&v));
  *out = v != 0;
  return OkStatus();
}

Status SnapshotReader::F64(double* out) {
  uint64_t bits;
  RETURN_IF_ERROR(ReadLe(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return OkStatus();
}

Status SnapshotReader::Str(std::string* out) {
  uint64_t size;
  RETURN_IF_ERROR(ReadLe(&size));
  RETURN_IF_ERROR(Need(size));
  out->assign(data_.data() + pos_, size);
  pos_ += size;
  return OkStatus();
}

Status SnapshotReader::BytesInto(std::vector<uint8_t>* out) {
  uint64_t size;
  RETURN_IF_ERROR(ReadLe(&size));
  RETURN_IF_ERROR(Need(size));
  out->assign(data_.begin() + pos_, data_.begin() + pos_ + size);
  pos_ += size;
  return OkStatus();
}

Status SnapshotReader::Skip(size_t n) {
  RETURN_IF_ERROR(Need(n));
  pos_ += n;
  return OkStatus();
}

Status SnapshotReader::Section(const char tag[5]) {
  RETURN_IF_ERROR(Need(4));
  if (data_.compare(pos_, 4, tag, 4) != 0) {
    return InternalError("snapshot section mismatch at offset " +
                         std::to_string(pos_) + ": expected '" +
                         std::string(tag, 4) + "' found '" +
                         std::string(data_.substr(pos_, 4)) + "'");
  }
  pos_ += 4;
  return OkStatus();
}

void TimerRegistry::Persist(SnapshotWriter& w) {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  w.Section("TIMR");
  w.U64(entries_.size());
  for (const Entry& e : entries_) {
    w.Str(e.key);
    w.I64(e.when);
  }
}

Status TimerRearmer::Replay(SnapshotReader& r) {
  RETURN_IF_ERROR(r.Section("TIMR"));
  uint64_t count;
  RETURN_IF_ERROR(r.U64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    SimTime when;
    RETURN_IF_ERROR(r.Str(&key));
    RETURN_IF_ERROR(r.I64(&when));
    auto handler = handlers_.extract(key);
    if (handler.empty()) {
      return InvalidArgumentError(
          "snapshot timer '" + key +
          "' is not held by the restored state or is named twice");
    }
    handler.mapped()(when);
  }
  return OkStatus();
}

}  // namespace androne
