#include "src/replay/replay_log.h"

#include <cstring>
#include <utility>

#include "src/util/bytes.h"
#include "src/util/geo.h"

namespace androne {

namespace {

std::string HexU64(uint64_t v) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

// Writer twins of RawCursor::Geo/Ned below.
void PutGeo(SnapshotWriter& w, const GeoPoint& g) {
  w.F64(g.latitude_deg);
  w.F64(g.longitude_deg);
  w.F64(g.altitude_m);
}

void PutNed(SnapshotWriter& w, const NedPoint& n) {
  w.F64(n.north_m);
  w.F64(n.east_m);
  w.F64(n.down_m);
}

void SaveTruth(SnapshotWriter& w, const DroneGroundTruth& t) {
  PutGeo(w, t.position);
  PutNed(w, t.velocity_ms);
  w.F64(t.roll_rad);
  w.F64(t.pitch_rad);
  w.F64(t.yaw_rad);
  w.F64(t.roll_rate_rads);
  w.F64(t.pitch_rate_rads);
  w.F64(t.yaw_rate_rads);
  w.F64(t.accel_up_mss);
  w.F64(t.rotor_power_w);
  w.Bool(t.airborne);
}

void SaveSample(SnapshotWriter& w, const FlightPlaneSample& s) {
  w.F64(s.wake_latency_us);
  w.F64(s.est_attitude.roll_rad);
  w.F64(s.est_attitude.pitch_rad);
  w.F64(s.est_attitude.yaw_rad);
  PutGeo(w, s.est_position.position);
  PutNed(w, s.est_position.velocity_ms);
  w.Bool(s.est_position.valid);
  w.I64(s.est_last_fix_time);
  for (uint8_t h : s.est_health) {
    w.U8(h);
  }
  for (double g : s.est_gyro) {
    w.F64(g);
  }
  w.Bool(s.est_dead_reckoning);
  SaveTruth(w, s.truth);
}

// Fast-path cursor over the fixed-width tick region. Samples dominate the
// log (~230 bytes × one per 2.5 ms of flight), and the generic
// SnapshotReader pays a non-inlined call + Status round trip per field —
// tens of milliseconds per parsed world, slower than replaying it. The
// cursor reads the identical little-endian encoding with inlined loads
// after ONE bounds check for the whole region (FromBytes verifies
// |tick count × sample size| up front). Must mirror SaveSample exactly;
// kSampleBytes is derived from SaveSample itself, so a field added to one
// but not the other breaks the round-trip tests immediately.
struct RawCursor {
  const uint8_t* p;

  uint64_t U64() {
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(p[i]) << (8 * i);
    }
    p += 8;
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    uint64_t bits = U64();
    double out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
  }
  uint8_t U8() { return *p++; }
  bool Bool() { return *p++ != 0; }
  void Geo(GeoPoint& g) {
    g.latitude_deg = F64();
    g.longitude_deg = F64();
    g.altitude_m = F64();
  }
  void Ned(NedPoint& n) {
    n.north_m = F64();
    n.east_m = F64();
    n.down_m = F64();
  }
};

void RestoreSampleRaw(RawCursor& c, FlightPlaneSample& s) {
  s.wake_latency_us = c.F64();
  s.est_attitude.roll_rad = c.F64();
  s.est_attitude.pitch_rad = c.F64();
  s.est_attitude.yaw_rad = c.F64();
  c.Geo(s.est_position.position);
  c.Ned(s.est_position.velocity_ms);
  s.est_position.valid = c.Bool();
  s.est_last_fix_time = c.I64();
  for (uint8_t& h : s.est_health) {
    h = c.U8();
  }
  for (double& g : s.est_gyro) {
    g = c.F64();
  }
  s.est_dead_reckoning = c.Bool();
  c.Geo(s.truth.position);
  c.Ned(s.truth.velocity_ms);
  s.truth.roll_rad = c.F64();
  s.truth.pitch_rad = c.F64();
  s.truth.yaw_rad = c.F64();
  s.truth.roll_rate_rads = c.F64();
  s.truth.pitch_rate_rads = c.F64();
  s.truth.yaw_rate_rads = c.F64();
  s.truth.accel_up_mss = c.F64();
  s.truth.rotor_power_w = c.F64();
  s.truth.airborne = c.Bool();
}

// Serialized size of one sample, derived from the writer so the raw reader
// can never disagree with it about the region's total length.
size_t SampleBytes() {
  static const size_t bytes = [] {
    SnapshotWriter w;
    SaveSample(w, FlightPlaneSample{});
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
  SaveSample(tick_, sample);
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

StatusOr<ReplayLog> ReplayLog::FromBytes(const std::string& bytes,
                                         uint64_t expected_seed,
                                         uint64_t expected_fingerprint) {
  SnapshotReader r(bytes);
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
    uint64_t ticks = 0;
    RETURN_IF_ERROR(r.U64(&ticks));
    // One bounds check for the whole fixed-width region, then the raw
    // cursor: per-field Status plumbing costs more than re-flying the
    // world (see RawCursor).
    const size_t sample_bytes = SampleBytes();
    if (ticks > (r.remaining() / sample_bytes)) {
      return InternalError(
          "replay log: tick section truncated: " + std::to_string(ticks) +
          " samples recorded, " + std::to_string(r.remaining()) +
          " bytes remain");
    }
    size_t tick_start = r.position();
    RawCursor cursor{
        reinterpret_cast<const uint8_t*>(bytes.data() + tick_start)};
    log.ticks_.resize(static_cast<size_t>(ticks));
    for (FlightPlaneSample& sample : log.ticks_) {
      RestoreSampleRaw(cursor, sample);
    }
    RETURN_IF_ERROR(r.Skip(static_cast<size_t>(ticks) * sample_bytes));
    uint64_t actual_checksum =
        Fnv1a64(bytes.data() + tick_start, r.position() - tick_start);
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
  log.byte_size_ = bytes.size();
  return log;
}

void ReplayLogStore::Put(uint64_t seed, std::string bytes) {
  auto log = std::make_shared<const std::string>(std::move(bytes));
  std::lock_guard<std::mutex> lock(mu_);
  logs_[seed] = std::move(log);
  parsed_.erase(seed);  // A re-recorded seed invalidates its cached parse.
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
  // Parse outside the lock: worlds replaying different seeds decode their
  // logs concurrently. A racing double-parse of one seed is wasted work,
  // not a hazard — last insert wins and both results are identical.
  auto parsed = ReplayLog::FromBytes(*bytes, seed, expected_fingerprint);
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
