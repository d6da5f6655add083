// World checkpoints (DESIGN.md §13): a versioned header around the
// snapshot byte stream, a cadence policy deciding when FleetWorld captures
// one, and a store that keeps the latest checkpoint blob for recovery.
#ifndef SRC_SNAPSHOT_CHECKPOINT_H_
#define SRC_SNAPSHOT_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "src/snapshot/snapshot.h"
#include "src/util/time.h"

namespace androne {

// Bump on any incompatible change to the snapshot byte layout. Readers
// reject mismatches with a descriptive error — a checkpoint is only valid
// against the exact serialization code that produced it. Version 2: the
// Rng saves only its xoshiro words (no spare normal), the SBUS section
// lost the seqlock's sequence and retry words, and every component state
// follows util/detmath numerics. Version 3: the PRXY section lost the
// link failsafe's command sequence and watchdog presence bytes, and each
// VFC section its link-loss suspension flag.
inline constexpr uint32_t kSnapshotFormatVersion = 3;
inline constexpr uint64_t kSnapshotMagic = 0x414e44524f4e4531ULL;  // "ANDRONE1"

// When FleetWorld captures checkpoints. Checkpoints are taken between
// clock chunks on the mission driver's 100 ms grid, so a cadence period is
// honored at the first chunk boundary at or after each multiple.
struct CheckpointPolicy {
  double period_s = 0;              // 0 disables periodic capture.
  bool at_phase_boundaries = true;  // Capture at mission phase entry.

  bool enabled() const { return period_s > 0 || at_phase_boundaries; }
};

// Identity carried ahead of the state sections. |world_fingerprint| binds a
// checkpoint to the (config, seed) world that wrote it: restoring into a
// differently-configured world would silently diverge, so it is an error.
struct CheckpointHeader {
  uint32_t version = kSnapshotFormatVersion;
  uint64_t seed = 0;
  uint64_t world_fingerprint = 0;
  SimTime sim_time = 0;

  void Save(SnapshotWriter& w) const;
  // Validates magic + version + identity, filling |*this| from the stream.
  // |expected_seed|/|expected_fingerprint| of the restoring world.
  Status Load(SnapshotReader& r, uint64_t expected_seed,
              uint64_t expected_fingerprint);
};

// Keeps the most recent checkpoint blob: each Put() replaces the previous
// one, so a world holds one blob however many it captures. The
// supervisor's restore-with-backoff path loads Latest().
class CheckpointStore {
 public:
  void Put(SimTime sim_time, std::string blob);
  // NotFoundError when no checkpoint has been stored yet.
  StatusOr<std::string> Latest() const;

  int count() const { return count_; }
  SimTime latest_time() const { return latest_time_; }
  size_t latest_bytes() const { return latest_.size(); }

 private:
  std::string latest_;
  SimTime latest_time_ = 0;
  int count_ = 0;
};

}  // namespace androne

#endif  // SRC_SNAPSHOT_CHECKPOINT_H_
