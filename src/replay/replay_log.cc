#include "src/replay/replay_log.h"

#include <bit>
#include <cstring>
#include <utility>

#include "src/util/bytes.h"

namespace androne {

namespace {

std::string HexU64(uint64_t v) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

// Reads ticks out of the region FromBytes bounds-checked, through the same
// VisitValue list the writer used. Ticks are nearly all of a log and a
// replaying world decodes every one, so this skips SnapshotReader's
// per-field call and Status and loads each 8-byte field as one unaligned
// word (GCC 12 does not merge a byte-shift loop into one load).
struct TickReader {
  static_assert(std::endian::native == std::endian::little,
                "the log is little-endian; a word load must match it");
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

// Serialized size of one sample, derived from the writer so the reader can
// never disagree with it about the region's total length.
size_t SampleBytes() {
  static const size_t bytes = [] {
    SnapshotWriter w;
    FlightPlaneSample sample;
    VisitValue(w, sample);
    return w.bytes().size();
  }();
  return bytes;
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
  // Bound the count by the bytes left before reserving: the PLAN section
  // precedes the tick checksum, so nothing else vets a corrupt count.
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
  head_.U64(kReplayLogMagic);
  head_.U32(kReplayLogVersion);
  head_.U64(seed);
  head_.U64(config_fingerprint);
}

void ReplayLogWriter::SetPlan(const PlannedRoute& route) {
  have_plan_ = true;
  plan_ = route;
}

void ReplayLogWriter::Append(const FlightPlaneSample& sample) {
  ++ticks_;
  // SnapshotWriter takes every field by value: the visit only reads.
  VisitValue(tick_, const_cast<FlightPlaneSample&>(sample));
}

std::string ReplayLogWriter::Finalize(const ReplayFooter& footer) {
  head_.Section("PLAN");
  head_.Bool(have_plan_);
  if (have_plan_) {
    SavePlan(head_, plan_);
  }
  head_.Section("TICK");
  head_.U64(ticks_);
  const std::string& samples = tick_.bytes();
  uint64_t checksum = Fnv1a64(samples.data(), samples.size());
  SnapshotWriter foot;
  SaveFooter(foot, footer, checksum);
  std::string out = head_.Take();
  out += samples;
  out += foot.bytes();
  return out;
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
    RETURN_IF_ERROR(r.Section("PLAN"));
    RETURN_IF_ERROR(r.Bool(&log.have_plan_));
    if (log.have_plan_) {
      RETURN_IF_ERROR(RestorePlan(r, log.plan_));
    }
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
    RETURN_IF_ERROR(
        r.Skip(static_cast<size_t>(log.tick_count_) * sample_bytes));
    uint64_t actual_checksum = Fnv1a64(bytes->data() + log.tick_offset_,
                                       r.position() - log.tick_offset_);
    uint64_t expected_checksum = 0;
    RETURN_IF_ERROR(RestoreFooter(r, log.footer_, &expected_checksum));
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
