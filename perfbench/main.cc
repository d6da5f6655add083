// perfbench: the repository benchmark binary.
//
//   perfbench --workload world|replay|campaign|serve --seed N --seconds S
//             --trace 0|1 --manifest PATH [--out DIR] [--revision REV]
//
// Prints the workload's figures with their units, a host record, and as
// its last line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 0 only when every op and every check passed.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench.h"
#include "src/util/logging.h"

namespace androne::perfbench {
namespace {

const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return PERFBENCH_SANITIZED != 0;
#endif
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

// The aggregate line of /proc/stat: jiffies the hypervisor gave to other
// guests (steal) and all jiffies, over the first eight fields (the guest
// fields after them are already counted as user time).
struct CpuJiffies {
  double steal = 0;
  double total = 0;
};
CpuJiffies ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuJiffies j;
  double value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    j.total += value;
    j.steal = field == 7 ? value : j.steal;
  }
  return j;
}

double HostReferenceMedianNs() {
  return Median({HostReferenceNs(20'000'000), HostReferenceNs(20'000'000),
                 HostReferenceNs(20'000'000)});
}

void PrintMetrics(const char* section, const MetricSet& set) {
  for (const Metric& m : set.metrics()) {
    std::printf("  %-8s %-40s %16s %s\n", section, m.name.c_str(),
                FormatNumberCompact(m.value).c_str(), m.unit.c_str());
  }
}

JsonArray StringsJson(const std::vector<std::string>& items) {
  return JsonArray(items.begin(), items.end());
}

// Wall per set-up of each set-up sample, in the order taken.
JsonArray SetupSamplesJson(const WorkloadRun& run) {
  JsonArray out;
  for (const auto& [wall_s, count] : run.setup_samples) {
    out.push_back(wall_s / count);
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  const char* workload = Flag(argc, argv, "--workload");
  const char* seed = Flag(argc, argv, "--seed");
  const char* seconds = Flag(argc, argv, "--seconds");
  const char* trace = Flag(argc, argv, "--trace");
  const char* manifest = Flag(argc, argv, "--manifest");
  const char* out_dir = Flag(argc, argv, "--out");
  const char* revision = Flag(argc, argv, "--revision");
  if (workload == nullptr || !IsWorkload(workload) || seed == nullptr ||
      seconds == nullptr || trace == nullptr || manifest == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload world|replay|campaign|serve "
                 "--seed N --seconds S --trace 0|1 --manifest PATH "
                 "[--out DIR] [--revision REV]\n");
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" || Sanitized()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s%s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release and no sanitizers\n",
                 build_type.c_str(), Sanitized() ? " sanitizer" : "");
    return 2;
  }

  BenchOptions options;
  options.workload = workload;
  options.seed = std::strtoull(seed, nullptr, 0);
  options.seconds = std::max(0.1, std::atof(seconds));
  options.trace = std::strcmp(trace, "1") == 0;
  options.manifest_path = manifest;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  options.threads = static_cast<int>(std::clamp(nproc, 1L, 4L));

  // Logs below error would swamp the output (the crash-loop family warns
  // six times per scenario); the digests prove the worlds ran.
  SetMinLogLevel(LogLevel::kError);
  const std::string load_before = LoadAverage();
  const double reference_before = HostReferenceMedianNs();
  const CpuJiffies jiffies_before = ReadCpuJiffies();

  WorkloadRun run = RunWorkload(options);
  if (options.trace) {
    RunLayerSweep(options, run);
  }

  const CpuJiffies jiffies_after = ReadCpuJiffies();
  const double reference_after = HostReferenceMedianNs();
  const std::string load_after = LoadAverage();
  const double jiffies = jiffies_after.total - jiffies_before.total;
  MetricSet end_to_end;
  end_to_end.Add("setup_s", run.SetupSeconds(), "s");
  run.detail.Add("setup_samples", static_cast<double>(run.setup_samples.size()),
                 "count");
  end_to_end.Add("peak_rss_mb", run.peak_rss_mb, "MB");
  end_to_end.Add("ops_per_s",
                 static_cast<double>(run.ops.attempted) / run.wall_s, "1/s");
  end_to_end.Add("sim_rtf", run.sim_s / run.wall_s, "sim_s/s");
  run.detail.Add("calls", static_cast<double>(run.calls.size()), "count");

  const bool correct = run.ops.attempted > 0 && run.ops.failed == 0 &&
                       run.problems.empty();
  std::printf("perfbench %s seed %llu: %llu ops attempted, %llu failed "
              "(%.4f%%), %.3f s timed\n",
              workload, static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(run.ops.attempted),
              static_cast<unsigned long long>(run.ops.failed),
              100 * run.ops.FailedShare(), run.wall_s);
  for (const std::string& note : run.notes) {
    std::printf("  note     %s\n", note.c_str());
  }
  for (const std::string& problem : run.problems) {
    std::printf("  FAILED   %s\n", problem.c_str());
  }
  PrintMetrics("e2e", end_to_end);
  PrintMetrics("detail", run.detail);
  PrintMetrics("layer", run.layers);

  const JsonValue host = JsonObject{
      {"nproc", static_cast<int64_t>(nproc)},
      {"compiler", "gcc " __VERSION__},
      {"build_type", build_type},
      {"sanitized", false},
      {"revision", revision != nullptr ? revision : "unknown"},
      {"workload", workload},
      {"seed", static_cast<double>(options.seed)},
      {"seconds", options.seconds},
      {"trace", options.trace},
      {"campaign_threads", options.threads},
      {"loadavg_before", load_before},
      {"loadavg_after", load_after},
      {"steal_share",
       jiffies > 0 ? (jiffies_after.steal - jiffies_before.steal) / jiffies
                   : 0.0},
      {"host_ref_ns_before", reference_before},
      {"host_ref_ns_after", reference_after}};
  std::printf("host %s\n", host.Dump().c_str());

  const MetricSet& reported = options.trace ? run.layers : end_to_end;
  if (out_dir != nullptr) {
    const std::string stem = std::string(out_dir) + "/" + workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0");
    const JsonValue record = JsonObject{
        {"host", host},
        {"attempted", static_cast<double>(run.ops.attempted)},
        {"failed", static_cast<double>(run.ops.failed)},
        {"end_to_end", MetricsJson(end_to_end)},
        {"detail", MetricsJson(run.detail)},
        {"layers", MetricsJson(run.layers)},
        {"calls", run.calls},
        {"setup_samples", SetupSamplesJson(run)},
        {"notes", StringsJson(run.notes)},
        {"problems", StringsJson(run.problems)}};
    bool written = WriteFile(stem + ".json", record.DumpPretty() + "\n");
    if (options.trace) {
      written =
          WriteFile(stem + "-spans.json", run.spans.ToJson().Dump() + "\n") &&
          written;
    }
    if (!written) {
      std::fprintf(stderr, "perfbench: cannot write results under %s\n",
                   out_dir);
    }
  }
  std::printf("%s\n", ResultJson(correct, run.ops, reported).Dump().c_str());
  std::fflush(stdout);
  return correct && reported.errors().empty() ? 0 : 1;
}

}  // namespace
}  // namespace androne::perfbench

int main(int argc, char** argv) {
  return androne::perfbench::Main(argc, argv);
}
