// Record-once replay log (DESIGN.md §15). During a normal run the world
// records, per fast-loop tick, the continuous-flight-plane state the
// discrete layer consumes (FlightPlaneSample) plus the planner's route and
// a footer of expected outcomes. A replay run re-executes the discrete
// layer live against the recorded plane — skipping sensor synthesis,
// estimator filtering, the attitude cascade, physics integration, and the
// planner's annealing — and must land on bit-identical digests.
//
// The log is a single little-endian byte stream, keyed by world seed and
// config fingerprint so a log can never be replayed against a different
// world than the one that recorded it:
//
//   [magic u64] [version u32] [seed u64] [fingerprint u64]
//   "TICK" [count u64] [count * FlightPlaneSample, fixed-width]
//   "PLAN" [have_plan bool] [route: drone, feasible, totals, stops]
//   "FOOT" [tick checksum u64] [sensor-fault counters]
//          [expected digests] [completed bool]
//
// The writer builds the whole log in one buffer: the tick count is written
// as 0 and patched at Finalize, each tick is stored as fixed-width words
// straight into the buffer, and the plan and footer (known only once the
// flight ends) follow the ticks. The tick checksum hashes the region a
// 64-bit word at a time (TickChecksum in replay_log.cc).
//
// A tick's layout is VisitValue(Ar&, FlightPlaneSample&): the writer and
// the reader both walk that one list. Loading validates magic, version,
// seed, fingerprint, and the tick checksum, and rejects truncated or
// trailing bytes — every rejection is a descriptive Status, never garbage
// samples. The stored bytes are the only copy of the ticks; a loaded log
// decodes one on demand.
#ifndef SRC_REPLAY_REPLAY_LOG_H_
#define SRC_REPLAY_REPLAY_LOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/cloud/flight_planner.h"
#include "src/flight/flight_controller.h"
#include "src/hw/sensor_faults.h"
#include "src/util/status.h"

namespace androne {

inline constexpr uint64_t kReplayLogMagic = 0x31474f4c52444e41ULL;  // "ANDRLOG1"
// Version 3: PLAN follows the ticks and the tick checksum is word-wise.
// Version 2 had PLAN ahead of the ticks and a byte-wise FNV-1a checksum;
// version 1 was recorded under libm numerics and the polar normal sampler.
inline constexpr uint32_t kReplayLogVersion = 3;

// Expected outcomes of the recording run, written after the flight ends.
// The sensor-fault tallies are installed into the replaying world (its
// skipped sensor reads never consult the injector); the digests let the
// replay path assert bit-identity without re-running the original.
struct ReplayFooter {
  bool have_sensor_counters = false;
  SensorFaultCounters sensor_counters;
  uint64_t digest = 0;
  uint64_t flight_digest = 0;
  uint64_t metrics_digest = 0;
  uint64_t trace_hash = 0;
  bool completed = false;
};

// Streaming recorder: the header and every tick (appended once per
// fast-loop tick, ~230 bytes each) go into one buffer, which Finalize
// completes with the plan and footer and returns. One writer per recorded
// world.
class ReplayLogWriter {
 public:
  ReplayLogWriter(uint64_t seed, uint64_t config_fingerprint);

  // The recorded world's planned route, captured right after the planner
  // runs (a replaying world installs it instead of re-deriving it). May be
  // called at any point before Finalize.
  void SetPlan(const PlannedRoute& route);

  void Append(const FlightPlaneSample& sample);
  uint64_t tick_count() const { return ticks_; }

  // Seals the log and hands over the buffer; the writer is spent
  // afterwards (tick_count() still answers).
  std::string Finalize(const ReplayFooter& footer);

 private:
  std::string buf_;  // Header, "TICK", count placeholder, then the ticks.
  uint64_t ticks_ = 0;
  bool have_plan_ = false;
  PlannedRoute plan_;
};

// A validated view over one log's bytes. It shares ownership of the bytes
// and decodes a tick only when asked, so a loaded log costs its bytes once.
class ReplayLog {
 public:
  // Validates |bytes|. |expected_seed| / |expected_fingerprint| pin the log
  // to the world about to replay it; pass the values from the log's own
  // header only when re-reading a log you just recorded. No tick is decoded.
  static StatusOr<ReplayLog> FromBytes(
      std::shared_ptr<const std::string> bytes, uint64_t expected_seed,
      uint64_t expected_fingerprint);
  // Same, over a private copy of |bytes|.
  static StatusOr<ReplayLog> FromBytes(const std::string& bytes,
                                       uint64_t expected_seed,
                                       uint64_t expected_fingerprint);

  uint64_t seed() const { return seed_; }
  uint64_t config_fingerprint() const { return fingerprint_; }
  bool have_plan() const { return have_plan_; }
  const PlannedRoute& plan() const { return plan_; }
  uint64_t tick_count() const { return tick_count_; }
  // Decodes tick |index| (< tick_count()) into |out|, overwriting every
  // field.
  void ReadTick(uint64_t index, FlightPlaneSample& out) const;
  const ReplayFooter& footer() const { return footer_; }
  size_t byte_size() const { return bytes_->size(); }

 private:
  ReplayLog() = default;

  std::shared_ptr<const std::string> bytes_;
  size_t tick_offset_ = 0;  // Where the first tick starts in |bytes_|.
  uint64_t tick_count_ = 0;
  uint64_t seed_ = 0;
  uint64_t fingerprint_ = 0;
  bool have_plan_ = false;
  PlannedRoute plan_;
  ReplayFooter footer_;
};

// Thread-safe log store keyed by world seed, shared across a fleet: a
// recording fleet run Put()s one log per world, a replaying fleet run (at
// any executor thread count) Get()s each world's log by its own seed.
class ReplayLogStore {
 public:
  void Put(uint64_t seed, std::string bytes);
  // Null when no log was recorded for |seed|.
  std::shared_ptr<const std::string> Get(uint64_t seed) const;
  // The validated view of |seed|'s log. It shares the stored bytes and is
  // cached, so a fleet replaying the same store many times (thread sweeps,
  // reps) pays the multi-megabyte checksum once per world, not once per
  // run. The fingerprint is re-checked against the cached header on every
  // call. NotFoundError when no log was recorded for |seed|; validation
  // failures are returned verbatim (and never cached).
  StatusOr<std::shared_ptr<const ReplayLog>> Parsed(
      uint64_t seed, uint64_t expected_fingerprint) const;
  size_t count() const;
  uint64_t total_bytes() const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const std::string>> logs_;
  mutable std::map<uint64_t, std::shared_ptr<const ReplayLog>> parsed_;
};

}  // namespace androne

#endif  // SRC_REPLAY_REPLAY_LOG_H_
