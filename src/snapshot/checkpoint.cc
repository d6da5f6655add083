#include "src/snapshot/checkpoint.h"

#include <string>
#include <utility>

namespace androne {

void CheckpointHeader::Save(SnapshotWriter& w) const {
  w.U64(kSnapshotMagic);
  w.U32(version);
  w.U64(seed);
  w.U64(world_fingerprint);
  w.I64(sim_time);
}

Status CheckpointHeader::Load(SnapshotReader& r, uint64_t expected_seed,
                              uint64_t expected_fingerprint) {
  uint64_t magic;
  RETURN_IF_ERROR(r.U64(&magic));
  if (magic != kSnapshotMagic) {
    return InvalidArgumentError("not an AnDrone world checkpoint (bad magic)");
  }
  RETURN_IF_ERROR(r.U32(&version));
  if (version != kSnapshotFormatVersion) {
    return InvalidArgumentError(
        "checkpoint format version mismatch: blob is v" +
        std::to_string(version) + ", this build reads v" +
        std::to_string(kSnapshotFormatVersion) +
        " — checkpoints are only restorable by the build that wrote them");
  }
  RETURN_IF_ERROR(r.U64(&seed));
  if (seed != expected_seed) {
    return InvalidArgumentError(
        "checkpoint belongs to a different world: seed mismatch");
  }
  RETURN_IF_ERROR(r.U64(&world_fingerprint));
  if (world_fingerprint != expected_fingerprint) {
    return InvalidArgumentError(
        "checkpoint belongs to a differently-configured world: "
        "fingerprint mismatch");
  }
  return r.I64(&sim_time);
}

void CheckpointStore::Put(SimTime sim_time, std::string blob) {
  latest_ = std::move(blob);
  latest_time_ = sim_time;
  ++count_;
}

StatusOr<std::string> CheckpointStore::Latest() const {
  if (count_ == 0) {
    return NotFoundError("no checkpoint captured yet");
  }
  return latest_;
}

}  // namespace androne
