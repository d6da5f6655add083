#include "src/replay/replay_log.h"

#include <bit>
#include <cstring>
#include <utility>

#include "src/snapshot/snapshot.h"
#include "src/util/bytes.h"

namespace androne {

namespace {

std::string HexU64(uint64_t v) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

static_assert(std::endian::native == std::endian::little,
              "the log is little-endian; a word copy must match it");

// Reads ticks out of the region FromBytes bounds-checked, through the same
// VisitValue list the writer used. Ticks are nearly all of a log and a
// replaying world decodes every one, so this skips SnapshotReader's
// per-field call and Status and loads each 8-byte field as one unaligned
// word (GCC 12 does not merge a byte-shift loop into one load).
struct TickReader {
  const char* p;

  template <class T>
  void Word(T& v) {
    static_assert(sizeof(T) == 8);
    std::memcpy(&v, p, 8);
    p += 8;
  }
  void F64(double& v) { Word(v); }
  void I64(int64_t& v) { Word(v); }
  void U8(uint8_t& v) { v = static_cast<uint8_t>(*p++); }
  void Bool(bool& v) { v = *p++ != 0; }
};

// TickReader's mirror: stores one tick into space the writer already
// sized, one unaligned word per 8-byte field, with SnapshotWriter's bytes.
struct TickWriter {
  char* p;

  template <class T>
  void Word(T v) {
    static_assert(sizeof(T) == 8);
    std::memcpy(p, &v, 8);
    p += 8;
  }
  void F64(double& v) { Word(v); }
  void I64(int64_t& v) { Word(v); }
  void U8(uint8_t& v) { *p++ = static_cast<char>(v); }
  void Bool(bool& v) { *p++ = v ? 1 : 0; }
};

// Serialized size of one sample, derived from the generic writer so the
// tick writer and reader can never disagree with it about a tick's length.
size_t SampleBytes() {
  static const size_t bytes = [] {
    SnapshotWriter w;
    FlightPlaneSample sample;
    VisitValue(w, sample);
    return w.bytes().size();
  }();
  return bytes;
}

// Where the tick count and the first tick sit: after magic, version, seed,
// fingerprint and the "TICK" tag.
constexpr size_t kTickCountOffset = 8 + 4 + 8 + 8 + 4;
constexpr size_t kTickRegionOffset = kTickCountOffset + 8;

// Room a writer reserves up front; a canonical world's log is 10.5-12.5
// MiB. Grown from empty, the buffer would be copied ~18 times on the way
// and each freed copy left in the heap, and replays run after such
// recordings measured ~6% slower (perfbench replay, seed 1, on a 4-vCPU
// KVM Xeon guest). Reserved pages that are never written cost no memory.
constexpr size_t kReservedLogBytes = size_t{16} << 20;

// The tick region's checksum: FNV-1a's xor-multiply over 8-byte
// little-endian words, each step followed by an xorshift, then the tail
// bytes one at a time. The shift carries the top bits back down: without
// it a flip of bit 63 only flips bit 63 of the state (an odd multiply
// keeps the lowest changed bit in place), so the same flip in the next
// word would cancel it.
uint64_t TickChecksum(const char* data, size_t size) {
  constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
  uint64_t h = kFnv1a64Offset;
  auto step = [&h](uint64_t w) {
    h = (h ^ w) * kFnvPrime;
    h ^= h >> 29;
  };
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    step(w);
  }
  for (; i < size; ++i) {
    step(static_cast<uint8_t>(data[i]));
  }
  return h;
}

void SavePlan(SnapshotWriter& w, const PlannedRoute& route) {
  w.I64(route.drone);
  w.Bool(route.feasible);
  w.F64(route.total_energy_j);
  w.F64(route.total_time_s);
  w.U32(static_cast<uint32_t>(route.stops.size()));
  for (const PlannedStop& stop : route.stops) {
    w.U64(stop.job_index);
    w.F64(stop.arrival_energy_j);
    w.F64(stop.arrival_time_s);
  }
}

Status RestorePlan(SnapshotReader& r, PlannedRoute& route) {
  int64_t drone = 0;
  RETURN_IF_ERROR(r.I64(&drone));
  route.drone = static_cast<int>(drone);
  RETURN_IF_ERROR(r.Bool(&route.feasible));
  RETURN_IF_ERROR(r.F64(&route.total_energy_j));
  RETURN_IF_ERROR(r.F64(&route.total_time_s));
  uint32_t stops = 0;
  RETURN_IF_ERROR(r.U32(&stops));
  // Bound the count by the bytes left before reserving: the tick checksum
  // does not cover the PLAN section, so nothing else vets a corrupt count.
  constexpr size_t kStopBytes = 8 + 8 + 8;  // job index, energy, time
  if (stops > r.remaining() / kStopBytes) {
    return InvalidArgumentError(
        "replay log: plan claims " + std::to_string(stops) + " stops, " +
        std::to_string(r.remaining()) + " bytes remain");
  }
  route.stops.clear();
  route.stops.reserve(stops);
  for (uint32_t i = 0; i < stops; ++i) {
    PlannedStop stop;
    uint64_t job_index = 0;
    RETURN_IF_ERROR(r.U64(&job_index));
    stop.job_index = static_cast<size_t>(job_index);
    RETURN_IF_ERROR(r.F64(&stop.arrival_energy_j));
    RETURN_IF_ERROR(r.F64(&stop.arrival_time_s));
    route.stops.push_back(stop);
  }
  return OkStatus();
}

void SaveFooter(SnapshotWriter& w, const ReplayFooter& f,
                uint64_t tick_checksum) {
  w.Section("FOOT");
  w.U64(tick_checksum);
  w.Bool(f.have_sensor_counters);
  w.U64(f.sensor_counters.dropouts);
  w.U64(f.sensor_counters.stuck_reads);
  w.U64(f.sensor_counters.corrupted_reads);
  w.U64(f.digest);
  w.U64(f.flight_digest);
  w.U64(f.metrics_digest);
  w.U64(f.trace_hash);
  w.Bool(f.completed);
}

Status RestoreFooter(SnapshotReader& r, ReplayFooter& f,
                     uint64_t* tick_checksum) {
  RETURN_IF_ERROR(r.Section("FOOT"));
  RETURN_IF_ERROR(r.U64(tick_checksum));
  RETURN_IF_ERROR(r.Bool(&f.have_sensor_counters));
  RETURN_IF_ERROR(r.U64(&f.sensor_counters.dropouts));
  RETURN_IF_ERROR(r.U64(&f.sensor_counters.stuck_reads));
  RETURN_IF_ERROR(r.U64(&f.sensor_counters.corrupted_reads));
  RETURN_IF_ERROR(r.U64(&f.digest));
  RETURN_IF_ERROR(r.U64(&f.flight_digest));
  RETURN_IF_ERROR(r.U64(&f.metrics_digest));
  RETURN_IF_ERROR(r.U64(&f.trace_hash));
  return r.Bool(&f.completed);
}

}  // namespace

ReplayLogWriter::ReplayLogWriter(uint64_t seed, uint64_t config_fingerprint) {
  SnapshotWriter head;
  head.U64(kReplayLogMagic);
  head.U32(kReplayLogVersion);
  head.U64(seed);
  head.U64(config_fingerprint);
  head.Section("TICK");
  head.U64(0);  // The tick count, patched at Finalize.
  buf_ = head.Take();
  buf_.reserve(kReservedLogBytes);
}

void ReplayLogWriter::SetPlan(const PlannedRoute& route) {
  have_plan_ = true;
  plan_ = route;
}

void ReplayLogWriter::Append(const FlightPlaneSample& sample) {
  ++ticks_;
  const size_t at = buf_.size();
  buf_.resize(at + SampleBytes());
  TickWriter writer{buf_.data() + at};
  // VisitValue takes a mutable sample; the tick writer only reads it.
  VisitValue(writer, const_cast<FlightPlaneSample&>(sample));
}

std::string ReplayLogWriter::Finalize(const ReplayFooter& footer) {
  std::memcpy(buf_.data() + kTickCountOffset, &ticks_, sizeof(ticks_));
  const uint64_t checksum = TickChecksum(buf_.data() + kTickRegionOffset,
                                         buf_.size() - kTickRegionOffset);
  SnapshotWriter tail;
  tail.Section("PLAN");
  tail.Bool(have_plan_);
  if (have_plan_) {
    SavePlan(tail, plan_);
  }
  SaveFooter(tail, footer, checksum);
  buf_ += tail.bytes();
  return std::move(buf_);
}

StatusOr<ReplayLog> ReplayLog::FromBytes(
    std::shared_ptr<const std::string> bytes, uint64_t expected_seed,
    uint64_t expected_fingerprint) {
  SnapshotReader r(*bytes);
  uint64_t magic = 0;
  if (!r.U64(&magic).ok() || magic != kReplayLogMagic) {
    return InvalidArgumentError(
        "replay log: bad magic — not a replay log (or truncated header)");
  }
  uint32_t version = 0;
  RETURN_IF_ERROR(r.U32(&version));
  if (version != kReplayLogVersion) {
    return InvalidArgumentError("replay log: unsupported format version " +
                                std::to_string(version) + " (expected " +
                                std::to_string(kReplayLogVersion) + ")");
  }
  ReplayLog log;
  RETURN_IF_ERROR(r.U64(&log.seed_));
  RETURN_IF_ERROR(r.U64(&log.fingerprint_));
  if (log.seed_ != expected_seed) {
    return FailedPreconditionError(
        "replay log: recorded at seed " + std::to_string(log.seed_) +
        ", world runs seed " + std::to_string(expected_seed));
  }
  if (log.fingerprint_ != expected_fingerprint) {
    return FailedPreconditionError(
        "replay log: config fingerprint " + HexU64(log.fingerprint_) +
        " does not match world fingerprint " + HexU64(expected_fingerprint) +
        " (world config changed since recording)");
  }
  Status body = [&]() -> Status {
    RETURN_IF_ERROR(r.Section("TICK"));
    RETURN_IF_ERROR(r.U64(&log.tick_count_));
    // One bounds check for the whole fixed-width region; ReadTick then
    // decodes inside it without per-field checks.
    const size_t sample_bytes = SampleBytes();
    if (log.tick_count_ > (r.remaining() / sample_bytes)) {
      return InternalError(
          "replay log: tick section truncated: " +
          std::to_string(log.tick_count_) + " samples recorded, " +
          std::to_string(r.remaining()) + " bytes remain");
    }
    log.tick_offset_ = r.position();
    const size_t tick_bytes =
        static_cast<size_t>(log.tick_count_) * sample_bytes;
    RETURN_IF_ERROR(r.Skip(tick_bytes));
    RETURN_IF_ERROR(r.Section("PLAN"));
    RETURN_IF_ERROR(r.Bool(&log.have_plan_));
    if (log.have_plan_) {
      RETURN_IF_ERROR(RestorePlan(r, log.plan_));
    }
    uint64_t expected_checksum = 0;
    RETURN_IF_ERROR(RestoreFooter(r, log.footer_, &expected_checksum));
    const uint64_t actual_checksum =
        TickChecksum(bytes->data() + log.tick_offset_, tick_bytes);
    if (actual_checksum != expected_checksum) {
      return InvalidArgumentError(
          "replay log: tick section checksum " + HexU64(actual_checksum) +
          " != recorded " + HexU64(expected_checksum) + " (log corrupted)");
    }
    return OkStatus();
  }();
  if (!body.ok()) {
    return body;
  }
  if (r.remaining() != 0) {
    return InvalidArgumentError("replay log: " +
                                std::to_string(r.remaining()) +
                                " trailing bytes after footer (log corrupted)");
  }
  log.bytes_ = std::move(bytes);
  return log;
}

StatusOr<ReplayLog> ReplayLog::FromBytes(const std::string& bytes,
                                         uint64_t expected_seed,
                                         uint64_t expected_fingerprint) {
  return FromBytes(std::make_shared<const std::string>(bytes), expected_seed,
                   expected_fingerprint);
}

void ReplayLog::ReadTick(uint64_t index, FlightPlaneSample& out) const {
  TickReader reader{bytes_->data() + tick_offset_ +
                    static_cast<size_t>(index) * SampleBytes()};
  VisitValue(reader, out);
}

void ReplayLogStore::Put(uint64_t seed, std::string bytes) {
  auto log = std::make_shared<const std::string>(std::move(bytes));
  std::lock_guard<std::mutex> lock(mu_);
  logs_[seed] = std::move(log);
  parsed_.erase(seed);  // A re-recorded seed invalidates its cached view.
}

std::shared_ptr<const std::string> ReplayLogStore::Get(uint64_t seed) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = logs_.find(seed);
  return it == logs_.end() ? nullptr : it->second;
}

StatusOr<std::shared_ptr<const ReplayLog>> ReplayLogStore::Parsed(
    uint64_t seed, uint64_t expected_fingerprint) const {
  std::shared_ptr<const std::string> bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto hit = parsed_.find(seed);
    if (hit != parsed_.end()) {
      if (hit->second->config_fingerprint() != expected_fingerprint) {
        return FailedPreconditionError(
            "replay log: config fingerprint " +
            HexU64(hit->second->config_fingerprint()) +
            " does not match world fingerprint " +
            HexU64(expected_fingerprint) +
            " (world config changed since recording)");
      }
      return hit->second;
    }
    auto it = logs_.find(seed);
    if (it == logs_.end()) {
      return NotFoundError("replay: no recorded log for seed " +
                           std::to_string(seed));
    }
    bytes = it->second;
  }
  // Validate outside the lock: worlds replaying different seeds checksum
  // their logs concurrently. A racing double validation of one seed is
  // wasted work, not a hazard — last insert wins and both views are equal.
  auto parsed =
      ReplayLog::FromBytes(std::move(bytes), seed, expected_fingerprint);
  if (!parsed.ok()) {
    return parsed.status();
  }
  auto log = std::make_shared<const ReplayLog>(std::move(*parsed));
  std::lock_guard<std::mutex> lock(mu_);
  parsed_[seed] = log;
  return log;
}

size_t ReplayLogStore::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return logs_.size();
}

uint64_t ReplayLogStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& entry : logs_) {
    total += entry.second->size();
  }
  return total;
}

}  // namespace androne
