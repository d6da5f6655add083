// Bench: multi-tenant control-plane sweep (DESIGN.md §16). Serves the
// built-in tenant mix through the front-end router at 1, 2, and 8 router
// threads plus a repeat run, and byte-compares the merged report text —
// "deterministic": true in the JSON means every run produced the identical
// report. A tight-queue row shows the admission controller rejecting under
// pressure, and a small kFleet row flies real cohort worlds (boot → plan →
// fly) through the shared world-template cache.
//
// Flags:
//   --smoke        small sweep for the CI sanitizer legs
//   --json <path>  machine-readable document; CI greps it for
//                  "deterministic": true and "admission_violations": 0
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/ctrl/router.h"
#include "src/ctrl/tenant_mix.h"
#include "src/util/logging.h"

namespace androne {
namespace {

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

struct Row {
  std::string label;
  int threads = 0;
  double wall_s = 0;
  ControlPlaneReport report;
  std::string text;  // report.ToText(), the byte-compared canonical form.
};

JsonObject RowJson(const Row& row) {
  const ControlPlaneReport& r = row.report;
  JsonObject o;
  o["label"] = row.label;
  o["mode"] = r.mode;
  o["threads"] = static_cast<double>(row.threads);
  o["sessions"] = static_cast<double>(r.sessions);
  o["billed"] = static_cast<double>(r.billed);
  o["rejected"] = static_cast<double>(r.rejected);
  o["cancelled"] = static_cast<double>(r.cancelled);
  o["failed"] = static_cast<double>(r.failed);
  o["peak_concurrency"] = static_cast<double>(r.peak_concurrency);
  o["makespan_s"] = r.makespan_s;
  o["sessions_per_s"] = r.sessions_per_second;
  o["admission_reject_rate"] = r.admission_reject_rate;
  o["wall_s"] = row.wall_s;
  o["digest"] = HexDigest(r.Digest());
  return o;
}

Row RunRow(const std::string& label, const ControlPlaneConfig& config,
           const TenantMixSpec& mix) {
  Row row;
  row.label = label;
  row.threads = config.threads;
  const auto start = std::chrono::steady_clock::now();
  ControlPlaneRouter router(config);
  row.report = router.Serve(mix);
  row.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  row.text = row.report.ToText();
  return row;
}

// The headline configuration: enough boards that the queue drains, a wide
// enough queue that nothing is turned away, and an arrival window short
// enough that nearly the whole load is in flight at the peak.
ControlPlaneConfig MainConfig(bool smoke) {
  ControlPlaneConfig config;
  config.seed = 1;
  config.shards = smoke ? 4 : 8;
  config.load.sessions = smoke ? 240 : 1200;
  config.load.arrival_window_s = smoke ? 20 : 40;
  config.admission.boards = 8;
  config.admission.queue_capacity = 512;
  return config;
}

void PrintRow(const Row& row) {
  const ControlPlaneReport& r = row.report;
  std::printf("  %-12s %7d %6d %6d %9d %6d %10.1f %9.2f %11.3f %8.3f  "
              "%016llx\n",
              row.label.c_str(), row.threads, r.billed, r.rejected,
              r.cancelled, r.failed, r.makespan_s, r.sessions_per_second,
              r.admission_reject_rate, row.wall_s,
              static_cast<unsigned long long>(r.Digest()));
}

int Run(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const char* json_path = JsonPathArg(argc, argv);

  // The kFleet cohort worlds log their container boots; digests already
  // prove the worlds flew.
  SetMinLogLevel(LogLevel::kWarning);

  BenchHeader("Control plane",
              "multi-tenant serving path: order -> plan -> fly -> bill");
  const TenantMixSpec mix = BuiltinTenantMix();
  const ControlPlaneConfig main_config = MainConfig(smoke);
  std::printf("  mix '%s' (%zu classes), %d sessions over %.0f s arrival "
              "window, %d shards x %d boards%s\n\n",
              mix.name.c_str(), mix.classes.size(), main_config.load.sessions,
              main_config.load.arrival_window_s, main_config.shards,
              main_config.admission.boards, smoke ? "  [smoke]" : "");

  std::printf("  %-12s %7s %6s %6s %9s %6s %10s %9s %11s %8s  %s\n", "row",
              "threads", "billed", "reject", "cancelled", "fail", "sim s",
              "sess/s", "reject_rate", "wall s", "report digest");

  // Thread sweep plus a straight repeat: every run must produce the same
  // report bytes.
  std::vector<int> thread_counts = smoke ? std::vector<int>{1, 2}
                                         : std::vector<int>{1, 2, 8};
  std::vector<Row> rows;
  for (int threads : thread_counts) {
    ControlPlaneConfig config = main_config;
    config.threads = threads;
    rows.push_back(RunRow("sweep", config, mix));
    PrintRow(rows.back());
  }
  {
    ControlPlaneConfig config = main_config;
    config.threads = 1;
    rows.push_back(RunRow("repeat", config, mix));
    PrintRow(rows.back());
  }
  bool deterministic = true;
  for (const Row& row : rows) {
    deterministic = deterministic && row.text == rows[0].text;
  }
  const Row& main_row = rows[0];

  // Tight queue: two boards and a four-deep queue per shard force the
  // admission controller to turn tenants away instead of queueing them.
  ControlPlaneConfig tight = main_config;
  tight.threads = 1;
  tight.admission.boards = 2;
  tight.admission.queue_capacity = 4;
  tight.load.sessions = smoke ? 120 : 400;
  Row tight_row = RunRow("tight-queue", tight, mix);
  PrintRow(tight_row);

  // kFleet: the same serving path, but each launched board cohort flies as
  // a real fleet world (containers boot from the shared template cache).
  ControlPlaneConfig fleet = main_config;
  fleet.threads = 2;
  fleet.fly_mode = FlyMode::kFleet;
  fleet.shards = 2;
  fleet.load.sessions = smoke ? 12 : 24;
  fleet.load.arrival_window_s = 10;
  Row fleet_row = RunRow("fleet-mode", fleet, mix);
  PrintRow(fleet_row);

  uint64_t admission_violations =
      tight_row.report.admission_violations +
      fleet_row.report.admission_violations;
  int settlement_errors =
      tight_row.report.settlement_errors + fleet_row.report.settlement_errors;
  for (const Row& row : rows) {
    admission_violations += row.report.admission_violations;
    settlement_errors += row.report.settlement_errors;
  }

  std::printf("\n  report bytes %s across repeats and thread counts\n",
              deterministic ? "IDENTICAL" : "DIVERGED");
  std::printf("  peak concurrency %d live sessions; %llu admission budget "
              "violations; %d settlement errors\n",
              main_row.report.peak_concurrency,
              static_cast<unsigned long long>(admission_violations),
              settlement_errors);
  for (const StageLatency& stage : main_row.report.stages) {
    std::printf("  stage %-8s count=%-6llu p50=%.3f ms  p99=%.3f ms\n",
                stage.stage.c_str(),
                static_cast<unsigned long long>(stage.count), stage.p50_ms,
                stage.p99_ms);
  }
  for (const std::string& failure : main_row.report.slo_failures) {
    std::printf("  SLO FAIL %s\n", failure.c_str());
  }
  if (!tight_row.report.admission_reject_rate) {
    std::printf("  warning: tight-queue row rejected nothing\n");
  }
  BenchNote("the report text never mentions thread count or wall-clock: "
            "it is a pure function of (config, mix, seed)");

  if (json_path != nullptr) {
    JsonObject doc;
    doc["bench"] = "control_plane_sweep";
    doc["smoke"] = smoke;
    doc["mix"] = mix.name;
    doc["sessions"] = static_cast<double>(main_row.report.sessions);
    doc["shards"] = static_cast<double>(main_row.report.shards);
    doc["deterministic"] = deterministic;
    doc["admission_violations"] = static_cast<double>(admission_violations);
    doc["settlement_errors"] = static_cast<double>(settlement_errors);
    doc["peak_concurrency"] =
        static_cast<double>(main_row.report.peak_concurrency);
    doc["peak_concurrency_ge_1000"] =
        main_row.report.peak_concurrency >= 1000;
    doc["sessions_per_s"] = main_row.report.sessions_per_second;
    doc["admission_reject_rate_tight"] =
        tight_row.report.admission_reject_rate;
    doc["slo_failures"] =
        static_cast<double>(main_row.report.slo_failures.size());
    doc["report_digest"] = HexDigest(main_row.report.Digest());
    JsonArray stages;
    for (const StageLatency& stage : main_row.report.stages) {
      JsonObject line;
      line["stage"] = stage.stage;
      line["count"] = static_cast<double>(stage.count);
      line["p50_ms"] = stage.p50_ms;
      line["p99_ms"] = stage.p99_ms;
      stages.emplace_back(std::move(line));
    }
    doc["stages"] = JsonValue(stages);
    JsonArray out_rows;
    for (const Row& row : rows) {
      out_rows.emplace_back(RowJson(row));
    }
    out_rows.emplace_back(RowJson(tight_row));
    out_rows.emplace_back(RowJson(fleet_row));
    doc["rows"] = JsonValue(out_rows);
    WriteJsonDoc(json_path, doc);
  }
  return deterministic && admission_violations == 0 && settlement_errors == 0
             ? 0
             : 1;
}

}  // namespace
}  // namespace androne

int main(int argc, char** argv) { return androne::Run(argc, argv); }
