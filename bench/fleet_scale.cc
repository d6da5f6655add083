// Fleet-scale throughput: how many full AnDrone worlds (boot + plan +
// multi-tenant flight + LTE telemetry downlink) the fleet executor pushes
// through per second as the worker count grows, and whether the fleet
// digest stays bit-identical at every thread count (the determinism
// contract). Every sweep row runs with a WorldTemplateCache, so one world
// per row cold-boots and the rest clone (DESIGN.md §14); each row reports
// its boot_s/fly_s wall split. A separate clone_vs_cold_boot row compares
// per-world startup cost against a template-less fleet at the same seeds
// and asserts the cloned fleet digest is identical to the cold-booted one.
// Writes BENCH_fleet_scale.json with --json.
//
// On a 1-core container the speedup column is flat by construction; the
// hardware_threads field records what the host could actually parallelize,
// and rows with threads > hardware_threads are flagged saturated and
// excluded from the speedup aggregates.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/exec/fleet_executor.h"
#include "src/exec/fleet_world.h"
#include "src/exec/world_template.h"
#include "src/util/json.h"
#include "src/util/logging.h"

namespace androne {
namespace {

constexpr int kWorlds = 12;
constexpr uint64_t kBaseSeed = 2026;

FleetWorldConfig BenchConfig() {
  FleetWorldConfig config;
  config.tenants = 2;
  config.dwell_s = 10;
  config.annealing_iterations = 200;
  return config;
}

struct Point {
  int threads = 0;
  double wall_s = 0;
  double worlds_per_s = 0;
  double events_per_s = 0;
  double speedup = 0;
  // Wall time split: summed per-world provisioning (boot-or-clone) cost vs
  // summed mission-flight cost across the fleet.
  double boot_s = 0;
  double fly_s = 0;
  int cloned = 0;            // Worlds served from the template cache.
  int cold_boots = 0;        // Worlds that cold-booted (template misses).
  uint64_t fleet_digest = 0;
  uint64_t events_run = 0;
  // Completed vs never-ran split: without it the throughput column silently
  // conflates "ran all worlds" with "budget-skipped some of them".
  int completed = 0;
  int skipped = 0;
  // More workers than the host can run in parallel: the speedup column is
  // bounded by the hardware, not the executor.
  bool saturated = false;
};

Point RunPoint(int threads, bool use_templates, FleetReport* report_out) {
  FleetOptions options;
  options.threads = threads;
  options.base_seed = kBaseSeed;
  FleetExecutor executor(options);
  // Fresh cache per row: each row models one fleet launch (one cold boot,
  // N-1 clones), so rows are comparable.
  WorldTemplateCache templates;
  FleetWorldConfig config = BenchConfig();
  if (use_templates) {
    config.templates = &templates;
  }
  FleetReport report = executor.Run(kWorlds, MakeFleetWorld(config));
  Point p;
  p.threads = threads;
  p.wall_s = report.wall_seconds;
  p.worlds_per_s = report.completed / report.wall_seconds;
  p.events_per_s = report.events_run / report.wall_seconds;
  p.boot_s = report.boot_seconds;
  p.fly_s = report.fly_seconds;
  p.cloned = report.worlds_cloned;
  p.cold_boots = report.completed - report.worlds_cloned;
  p.fleet_digest = report.fleet_digest;
  p.events_run = report.events_run;
  p.completed = report.completed;
  p.skipped = report.skipped;
  if (report_out != nullptr) {
    *report_out = std::move(report);
  }
  return p;
}

// Per-world average boot wall cost over worlds matching |want_cloned|.
double MeanBootNs(const FleetReport& report, bool want_cloned) {
  double total = 0;
  int n = 0;
  for (const WorldResult& world : report.worlds) {
    if (world.completed && world.provision.cloned == want_cloned) {
      total += static_cast<double>(world.provision.boot_ns);
      ++n;
    }
  }
  return n > 0 ? total / n : 0;
}

// `--metrics <path>`: runs the bench fleet once more on one thread with
// metrics enabled (they always are) and writes the merged fleet snapshot's
// deterministic text form — CI records it next to the bench JSONs.
void ExportMetrics(const char* metrics_path) {
  FleetOptions options;
  options.threads = 1;
  options.base_seed = kBaseSeed;
  FleetExecutor executor(options);
  FleetReport report = executor.Run(kWorlds, MakeFleetWorld(BenchConfig()));
  WriteTextFile(metrics_path, report.metrics.ToText());
}

void Run(const char* json_path) {
  // The per-world container/flight logs would swamp the table (and their
  // interleaving varies run to run); digests already prove the worlds flew.
  SetMinLogLevel(LogLevel::kWarning);

  BenchHeader("Fleet scale",
              "parallel fleet executor throughput and determinism");
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::printf("  %d worlds x (%d tenants, boot->plan->fly->downlink), "
              "host has %d hardware thread(s)\n\n",
              kWorlds, BenchConfig().tenants, hardware);

  // Clone-vs-cold-boot baseline: the same fleet with templates off. Its
  // digest must equal the templated fleet's — the cloned world IS the
  // cold-booted world.
  FleetReport cold_report;
  Point cold = RunPoint(/*threads=*/1, /*use_templates=*/false, &cold_report);

  std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<Point> points;
  FleetReport clone_report;
  for (int threads : thread_counts) {
    points.push_back(RunPoint(threads, /*use_templates=*/true,
                              threads == 1 ? &clone_report : nullptr));
  }

  bool digests_match = true;
  for (const Point& p : points) {
    digests_match = digests_match && p.fleet_digest == points[0].fleet_digest;
  }
  const bool clone_digest_match = cold.fleet_digest == points[0].fleet_digest;

  const double cold_boot_ns = MeanBootNs(cold_report, /*want_cloned=*/false);
  const double clone_boot_ns = MeanBootNs(clone_report, /*want_cloned=*/true);
  const double clone_speedup =
      clone_boot_ns > 0 ? cold_boot_ns / clone_boot_ns : 0;

  std::printf("  %-8s %5s %5s %10s %9s %9s %12s %14s %9s  %s\n", "threads",
              "done", "skip", "wall s", "boot s", "fly s", "worlds/s",
              "sim events/s", "speedup", "fleet digest");
  for (Point& p : points) {
    p.speedup = points[0].wall_s / p.wall_s;
    p.saturated = p.threads > hardware;
    std::printf(
        "  %-8d %5d %5d %10.3f %9.3f %9.3f %12.2f %14.0f %8.2fx  %016llx%s\n",
        p.threads, p.completed, p.skipped, p.wall_s, p.boot_s, p.fly_s,
        p.worlds_per_s, p.events_per_s, p.speedup,
        static_cast<unsigned long long>(p.fleet_digest),
        p.saturated ? "  (saturated)" : "");
  }
  // Speedup aggregates over the rows the host could actually parallelize;
  // saturated rows stay in the table (flagged) but not in the aggregate.
  double speedup_max = 0;
  double speedup_sum = 0;
  int unsaturated = 0;
  for (const Point& p : points) {
    if (p.saturated) {
      continue;
    }
    speedup_max = std::max(speedup_max, p.speedup);
    speedup_sum += p.speedup;
    ++unsaturated;
  }
  const double speedup_mean = unsaturated > 0 ? speedup_sum / unsaturated : 0;

  std::printf("\n  digests %s across thread counts\n",
              digests_match ? "IDENTICAL" : "DIVERGED");
  std::printf("  clone_vs_cold_boot: cold %.0f us/world, clone %.0f us/world "
              "-> %.1fx faster startup; digest %s\n",
              cold_boot_ns * 1e-3, clone_boot_ns * 1e-3, clone_speedup,
              clone_digest_match ? "IDENTICAL" : "DIVERGED");
  BenchNote("per-world seed = SplitMix64(base_seed + index): results are a "
            "function of the config, never of the schedule");

  if (json_path != nullptr) {
    JsonObject doc;
    doc["bench"] = "fleet_scale";
    doc["worlds"] = static_cast<double>(kWorlds);
    doc["tenants_per_world"] = static_cast<double>(BenchConfig().tenants);
    doc["base_seed"] = static_cast<double>(kBaseSeed);
    doc["hardware_threads"] = static_cast<double>(hardware);
    doc["digests_match"] = digests_match;
    // Aggregates exclude saturated rows — a 1-core host reporting 1.0x at
    // 8 threads is a hardware bound, not executor data.
    doc["speedup_unsaturated_max"] = speedup_max;
    doc["speedup_unsaturated_mean"] = speedup_mean;
    doc["clone_speedup"] = clone_speedup;
    doc["clone_speedup_ge_3"] = clone_speedup >= 3.0;
    doc["clone_digest_match"] = clone_digest_match;
    JsonArray rows;
    for (const Point& p : points) {
      JsonObject row;
      row["threads"] = static_cast<double>(p.threads);
      row["completed"] = static_cast<double>(p.completed);
      row["skipped"] = static_cast<double>(p.skipped);
      row["wall_s"] = p.wall_s;
      row["boot_s"] = p.boot_s;
      row["fly_s"] = p.fly_s;
      row["cold_boots"] = static_cast<double>(p.cold_boots);
      row["cloned"] = static_cast<double>(p.cloned);
      row["worlds_per_s"] = p.worlds_per_s;
      row["events_per_s"] = p.events_per_s;
      row["speedup_vs_1_thread"] = p.speedup;
      row["saturated"] = p.saturated;
      row["fleet_digest"] = HexDigest(p.fleet_digest);
      rows.emplace_back(std::move(row));
    }
    // The clone_vs_cold_boot comparison as its own labeled row.
    {
      JsonObject row;
      row["label"] = std::string("clone_vs_cold_boot");
      row["cold_boot_us_per_world"] = cold_boot_ns * 1e-3;
      row["clone_boot_us_per_world"] = clone_boot_ns * 1e-3;
      row["clone_speedup"] = clone_speedup;
      row["cold_fleet_digest"] = HexDigest(cold.fleet_digest);
      row["digest_match"] = clone_digest_match;
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
  const char* metrics_path = androne::FlagArg(argc, argv, "--metrics");
  if (metrics_path != nullptr) {
    androne::ExportMetrics(metrics_path);
  }
  return 0;
}
