// Self-test of the benchmark's reporting helpers (bench_stats.h). Runs
// before every benchmark build is used; also registered with the package's
// own ctest. Exits non-zero and names each failed check.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.h"

namespace androne::perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

void TestPercentileRule() {
  // Highest percentile with at least ten samples beyond it.
  Check(TailPercentileFor(0) == 0, "no samples, no percentile");
  Check(TailPercentileFor(19) == 0, "19 samples leave 9 beyond the median");
  Check(TailPercentileFor(20) == 50, "20 samples support the median");
  Check(TailPercentileFor(99) == 50, "99 samples leave 9 beyond p90");
  Check(TailPercentileFor(100) == 90, "100 samples support p90");
  Check(TailPercentileFor(999) == 90, "999 samples leave 9 beyond p99");
  Check(TailPercentileFor(1000) == 99, "1000 samples support p99");
  Check(TailPercentileFor(10000) == 99.9, "10000 samples support p99.9");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  Check(Percentile(v, 90) == 90, "nearest-rank p90 of 1..100 is 90");
  Check(Percentile(v, 50) == 50, "nearest-rank p50 of 1..100 is 50");
  Check(Percentile(v, 100) == 100, "p100 is the maximum");
  Check(Percentile({}, 50) == 0, "percentile of nothing is 0");
  Check(Median({3, 1, 2}) == 2, "odd median");
  Check(Median({4, 1, 2, 3}) == 2.5, "even median averages the middles");
}

void TestMetricNames() {
  Check(ValidMetricName("world.wall_ms.p90"), "dotted name");
  Check(ValidMetricName("scenario.crash_loop.ms_per_sim_s"), "family name");
  Check(ValidMetricName("9lives-x"), "leading digit and dash");
  Check(!ValidMetricName(""), "empty name");
  Check(!ValidMetricName(".hidden"), "leading dot");
  Check(!ValidMetricName("_x"), "leading underscore");
  Check(!ValidMetricName("a b"), "space");
  Check(!ValidMetricName("a/b"), "slash belongs to units only");
  Check(!ValidMetricName(std::string(65, 'a')), "65 characters");
  Check(ValidMetricName(std::string(64, 'a')), "64 characters");
  Check(ValidMetricUnit("sim_s/s") && ValidMetricUnit("%"), "units");
  Check(!ValidMetricUnit("") && !ValidMetricUnit("m s"), "bad units");

  MetricSet set;
  set.Add("ok.metric", 1.5, "ms");
  set.Add("bad name", 1, "ms");
  set.Add("ok.metric", 2, "ms");
  set.Add("inf.metric", INFINITY, "ms");
  Check(set.metrics().size() == 1, "only the valid metric is kept");
  Check(set.errors().size() == 3, "charset, duplicate and non-finite errors");
  OpTally ops;
  ops.Add(true);
  Check(!ResultJson(true, ops, set).Find("correct")->AsBool(),
        "metric errors force correct false");
}

Span MakeSpan(int64_t start, int64_t end, int parent) {
  return Span{std::string("s"), start, end, parent, -1, {}};
}

void TestSelfTime() {
  // Root [0, 100) with children [10, 40) and [30, 60) overlapping, and
  // [90, 120) poking out of the root: covered = [10, 60) + [90, 100) = 60.
  std::vector<Span> spans = {MakeSpan(0, 100, -1), MakeSpan(10, 40, 0),
                             MakeSpan(30, 60, 0), MakeSpan(90, 120, 0),
                             MakeSpan(15, 20, 1)};
  std::vector<int64_t> self = SelfTimes(spans);
  Check(self[0] == 40, "root self time counts overlapping children once");
  Check(self[1] == 25, "grandchild covers part of its parent");
  Check(self[2] == 30 && self[3] == 30, "leaves keep their whole duration");
  Check(self[4] == 5, "leaf inside a child");

  std::vector<Span> nested = {MakeSpan(0, 10, -1), MakeSpan(0, 10, 0),
                              MakeSpan(2, 4, 0)};
  Check(SelfTimes(nested)[0] == 0, "children covering the parent leave 0");

  SpanRecorder rec;
  const int root = rec.Begin("root", -1, -1);
  rec.Add("child", rec.spans()[0].start_ns, rec.spans()[0].start_ns, root, 7);
  rec.Count(1, "events", 42);
  rec.End(root);
  Check(rec.spans().size() == 2 && rec.spans()[1].op == 7, "recorder keeps op");
  const JsonValue json = rec.ToJson();
  Check(json.AsArray()[0].Find("self_ns") != nullptr,
        "span export carries self time");
  Check(json.AsArray()[1].Find("counts")->GetNumberOr("events", 0) == 42,
        "span export carries the op's counts");
}

void TestFailedOps() {
  OpTally t;
  Check(t.FailedShare() == 0, "no ops, no failed share");
  t.Add(true);
  t.Add(false);
  t.AddMany(8, 1);
  Check(t.attempted == 10 && t.failed == 2, "per-op and batch accounting");
  Check(t.FailedShare() == 0.2, "failed share is failed over attempted");
  t.AddMany(2, 5);
  Check(t.attempted == 12 && t.failed == 4, "a batch fails at most its size");

  MetricSet set;
  set.Add("x", 1, "count");
  Check(ResultJson(true, t, set).Dump() ==
            "{\"attempted\":12,\"correct\":true,\"failed\":4,"
            "\"metrics\":{\"x\":{\"unit\":\"count\",\"value\":1}}}",
        "result line has exactly the four keys");
}

}  // namespace
}  // namespace androne::perfbench

int main() {
  using namespace androne::perfbench;
  TestPercentileRule();
  TestMetricNames();
  TestSelfTime();
  TestFailedOps();
  if (failures == 0) {
    std::printf("perfbench_selftest: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
