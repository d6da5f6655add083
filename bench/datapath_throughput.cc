// Data-path throughput: how fast one full AnDrone world (boot + plan +
// multi-tenant flight + LTE telemetry downlink) runs through the per-world
// hot loop under the two downlink transport models (DESIGN.md §10):
//
//   unbatched  one VPN datagram per telemetry frame
//   batched    telemetry batching (the production default)
//
// For each mode the same seeded world is flown at 1/2/4/8 tenants and the
// bench reports simulated events/s and downlink datagrams/s of wall time.
// The invariance contract is asserted inline: batching repacks datagrams,
// so the *flight* digest (attitude log) must be byte-identical between the
// two modes at every tenant count — the drone flies the same flight
// regardless of how telemetry is framed on the wire.
//
// Writes BENCH_datapath.json with --json; CI greps it for
// "flight_digest_match": true.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/exec/fleet_executor.h"
#include "src/exec/fleet_world.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace androne {
namespace {

constexpr uint64_t kBaseSeed = 2026;
const int kTenantCounts[] = {1, 2, 4, 8};
// Cells run in tens of milliseconds, where scheduler noise dominates a
// single measurement; each cell is the best of kRepetitions identical runs.
constexpr int kRepetitions = 3;

struct Mode {
  const char* name;
  bool batch_telemetry;
};

const Mode kModes[] = {
    {"unbatched", false},
    {"batched", true},
};

struct Point {
  std::string mode;
  int tenants = 0;
  double wall_s = 0;
  uint64_t events_run = 0;
  double events_per_s = 0;
  double frames_per_s = 0;    // Downlink datagrams per wall second.
  uint64_t wire_frames = 0;   // Telemetry frames encoded onto the wire.
  uint64_t wire_flushes = 0;  // Datagrams those frames were packed into.
  uint64_t flight_digest = 0;
  bool completed = false;
};

Point RunPoint(const Mode& mode, int tenants) {
  FleetWorldConfig config;
  config.tenants = tenants;
  // Long dwell + short annealing keeps the cell dominated by the flight /
  // telemetry hot loop this bench is about, not mode-independent planning.
  config.dwell_s = 30;
  config.annealing_iterations = 100;
  config.batch_telemetry = mode.batch_telemetry;
  // The board budget admits 3 virtual drones (paper Figure 12); the wider
  // sweep models a cloud host with room for all eight.
  if (tenants > 3) {
    config.memory_budget_mb = 2048;
  }

  WorldContext ctx;
  ctx.index = 0;
  ctx.seed = FleetExecutor::WorldSeed(kBaseSeed, 0);

  // The world is deterministic, so every repetition produces the same
  // events/digests; only the wall time varies. Keep the fastest run.
  double best_wall = 0;
  WorldResult result;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto start = std::chrono::steady_clock::now();
    WorldResult attempt = RunFleetWorld(config, ctx);
    auto end = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(end - start).count();
    if (rep == 0 || wall < best_wall) {
      best_wall = wall;
      result = std::move(attempt);
    }
  }

  Point p;
  p.mode = mode.name;
  p.tenants = tenants;
  p.wall_s = best_wall;
  p.events_run = result.events_run;
  p.events_per_s = result.events_run / p.wall_s;
  p.wire_frames = static_cast<uint64_t>(result.counters["wire_frames"]);
  p.wire_flushes = static_cast<uint64_t>(result.counters["downlink_flushes"]);
  p.frames_per_s = p.wire_flushes / p.wall_s;
  p.flight_digest = result.flight_digest;
  p.completed = result.completed;
  return p;
}

// `--trace <path>`: re-flies the canonical 2-tenant production world with
// every category enabled and writes a Chrome trace_event JSON loadable in
// chrome://tracing or Perfetto (plus a metric snapshot to `--metrics`).
// Runs separately from the timed cells so tracing never skews them.
void ExportTraceAndMetrics(const char* trace_path, const char* metrics_path) {
  FleetWorldConfig config;
  config.tenants = 2;
  config.dwell_s = 30;
  config.annealing_iterations = 100;
  TraceRecorder trace(kTraceAll, /*capacity=*/1 << 16);
  config.trace = &trace;

  WorldContext ctx;
  ctx.index = 0;
  ctx.seed = FleetExecutor::WorldSeed(kBaseSeed, 0);
  WorldResult result = RunFleetWorld(config, ctx);

  if (trace_path != nullptr) {
    WriteTextFile(trace_path, trace.ExportChromeJson());
  }
  if (metrics_path != nullptr) {
    WriteTextFile(metrics_path, result.metrics.ToText());
  }
}

void Run(const char* json_path) {
  SetMinLogLevel(LogLevel::kWarning);
  BenchHeader("Datapath throughput",
              "per-world hot loop: unbatched vs batched telemetry "
              "downlink");
  BenchNote("one seeded world per cell: boot -> plan -> fly -> downlink; "
            "wall time excludes nothing (boot and teardown included); "
            "each cell reports the best of 3 identical runs");

  std::vector<Point> points;
  for (const Mode& mode : kModes) {
    std::printf("\n%s (batch_telemetry=%d):\n", mode.name,
                mode.batch_telemetry);
    std::printf("  %-8s %9s %13s %14s %11s %9s  %s\n", "tenants", "wall s",
                "sim events/s", "wire frames", "datagrams", "dgram/s",
                "flight digest");
    for (int tenants : kTenantCounts) {
      Point p = RunPoint(mode, tenants);
      std::printf("  %-8d %9.3f %13.0f %14llu %11llu %9.0f  %016llx%s\n",
                  p.tenants, p.wall_s, p.events_per_s,
                  static_cast<unsigned long long>(p.wire_frames),
                  static_cast<unsigned long long>(p.wire_flushes),
                  p.frames_per_s,
                  static_cast<unsigned long long>(p.flight_digest),
                  p.completed ? "" : "  (INCOMPLETE)");
      points.push_back(p);
    }
  }

  // Invariance: batching must not move the flight. Compare unbatched vs
  // batched flight digests at every tenant count.
  auto find = [&](const char* mode, int tenants) -> const Point* {
    for (const Point& p : points) {
      if (p.mode == mode && p.tenants == tenants) {
        return &p;
      }
    }
    return nullptr;
  };
  bool digest_match = true;
  for (int tenants : kTenantCounts) {
    const Point* unbatched = find("unbatched", tenants);
    const Point* batched = find("batched", tenants);
    digest_match = digest_match && unbatched != nullptr &&
                   batched != nullptr &&
                   unbatched->flight_digest == batched->flight_digest;
  }
  std::printf("\n  flight digests %s between batched and unbatched "
              "telemetry\n",
              digest_match ? "IDENTICAL" : "DIVERGED");

  if (json_path != nullptr) {
    JsonObject doc;
    doc["bench"] = "datapath_throughput";
    doc["base_seed"] = static_cast<double>(kBaseSeed);
    doc["flight_digest_match"] = digest_match;
    JsonArray rows;
    for (const Point& p : points) {
      JsonObject row;
      row["mode"] = p.mode;
      row["tenants"] = static_cast<double>(p.tenants);
      row["wall_s"] = p.wall_s;
      row["events_run"] = static_cast<double>(p.events_run);
      row["events_per_s"] = p.events_per_s;
      row["wire_frames"] = static_cast<double>(p.wire_frames);
      row["datagrams"] = static_cast<double>(p.wire_flushes);
      row["datagrams_per_s"] = p.frames_per_s;
      row["flight_digest"] = HexDigest(p.flight_digest);
      row["completed"] = p.completed;
      rows.emplace_back(std::move(row));
    }
    doc["rows"] = JsonValue(rows);
    WriteJsonDoc(json_path, doc);
  }
}

}  // namespace
}  // namespace androne

int main(int argc, char** argv) {
  androne::Run(androne::JsonPathArg(argc, argv));
  const char* trace_path = androne::FlagArg(argc, argv, "--trace");
  const char* metrics_path = androne::FlagArg(argc, argv, "--metrics");
  if (trace_path != nullptr || metrics_path != nullptr) {
    androne::ExportTraceAndMetrics(trace_path, metrics_path);
  }
  return 0;
}
