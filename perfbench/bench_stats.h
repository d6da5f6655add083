// Helpers of the repository benchmark that carry its reporting rules: the
// tail-percentile rule, the metric-name charset, in-memory spans with
// self-time, failed-op accounting, and the one-line JSON result.
#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/json.h"

namespace androne::perfbench {

// Nanoseconds on the steady clock since an arbitrary epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ns per iteration of a fixed integer/floating-point loop that touches no
// simulator code: the host's speed at the moment, to tell a slow host from
// a slow commit.
double HostReferenceNs(int iterations);

// The highest percentile of the ladder {50, 90, 99, 99.9} that leaves at
// least ten of |samples| beyond it; 0 when even the median does not.
double TailPercentileFor(size_t samples);

// Nearest-rank percentile (0 < pct <= 100) of |values|; 0 when empty.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);

// Metric names: 1 to 64 characters of [A-Za-z0-9_.-], starting with a
// letter or a digit. Units: 1 to 16 characters of [A-Za-z0-9_/%.-].
bool ValidMetricName(std::string_view name);
bool ValidMetricUnit(std::string_view unit);

// One timed interval around a call into the program. |parent| indexes the
// enclosing span (-1 at the root); spans of one op share |op| (-1 when the
// span is not one op's). |counts| are the op's counts read at the same
// boundary (events run, fast-loop ticks, ...).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t op = -1;
  std::vector<std::pair<std::string, double>> counts;
};

// Spans kept in memory until the run ends. Begin/End nest; Add records an
// interval measured elsewhere (a world's own provisioning timers).
class SpanRecorder {
 public:
  int Begin(std::string name, int parent, int64_t op);
  void End(int id);
  int Add(std::string name, int64_t start_ns, int64_t end_ns, int parent,
          int64_t op);
  void Count(int id, std::string name, double value);
  const std::vector<Span>& spans() const { return spans_; }
  // One JSON object per span, with its self time, as a JSON array.
  JsonValue ToJson() const;

 private:
  std::vector<Span> spans_;
};

// Self time of each span: its duration minus the part of its interval
// covered by the union of its children (overlapping children count once,
// child time outside the parent counts not at all).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Ops attempted and failed in one workload.
struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
  // |count| ops of which |bad| failed; |bad| is clamped to |count|.
  void AddMany(uint64_t count, uint64_t bad);
  double FailedShare() const;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(std::string_view name) const;
  // Names that broke the charset, were used twice, or carry a non-finite
  // value; a result with any of them is not correct.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

// {"name": {"unit": "u", "value": v}, ...}.
JsonValue MetricsJson(const MetricSet& metrics);

// The benchmark's last stdout line: exactly the keys attempted, correct,
// failed, metrics. |correct| is forced false by any metric-set error.
JsonValue ResultJson(bool correct, const OpTally& ops,
                     const MetricSet& metrics);

}  // namespace androne::perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
