#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace androne::perfbench {

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

double HostReferenceNs(int iterations) {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0;
  const int64_t start = NowNs();
  for (int i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  const int64_t end = NowNs();
  volatile double sink = acc;
  (void)sink;
  return static_cast<double>(end - start) / iterations;
}

double TailPercentileFor(size_t samples) {
  // Per-mille ladder, highest first; integer ranks keep 90% of 100 samples
  // from rounding to 91.
  for (uint64_t per_mille : {999u, 990u, 900u, 500u}) {
    const uint64_t rank = (samples * per_mille + 999) / 1000;
    if (samples >= rank + 10) {
      return static_cast<double>(per_mille) / 10.0;
    }
  }
  return 0;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double exact = pct * static_cast<double>(values.size()) / 100.0;
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidMetricUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

int SpanRecorder::Begin(std::string name, int parent, int64_t op) {
  const int64_t now = NowNs();
  return Add(std::move(name), now, now, parent, op);
}

void SpanRecorder::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int SpanRecorder::Add(std::string name, int64_t start_ns, int64_t end_ns,
                      int parent, int64_t op) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, op, {}});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::Count(int id, std::string name, double value) {
  spans_[static_cast<size_t>(id)].counts.push_back({std::move(name), value});
}

JsonValue SpanRecorder::ToJson() const {
  const std::vector<int64_t> self = SelfTimes(spans_);
  int64_t origin = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    origin = i == 0 ? spans_[i].start_ns : std::min(origin, spans_[i].start_ns);
  }
  JsonArray out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject span = {{"id", static_cast<int64_t>(i)},
                       {"name", s.name},
                       {"start_ns", s.start_ns - origin},
                       {"end_ns", s.end_ns - origin},
                       {"parent", s.parent},
                       {"op", s.op},
                       {"self_ns", self[i]}};
    if (!s.counts.empty()) {
      JsonObject counts;
      for (const auto& [name, value] : s.counts) {
        counts[name] = value;
      }
      span["counts"] = std::move(counts);
    }
    out.push_back(std::move(span));
  }
  return out;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      const Span& p = spans[static_cast<size_t>(s.parent)];
      const int64_t lo = std::max(s.start_ns, p.start_ns);
      const int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) {
        children[static_cast<size_t>(s.parent)].push_back({lo, hi});
      }
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) {
        covered += run_hi - run_lo;
      }
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) {
      covered += run_hi - run_lo;
    }
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = std::max<int64_t>(0, duration - covered);
  }
  return self;
}

void OpTally::AddMany(uint64_t count, uint64_t bad) {
  attempted += count;
  failed += std::min(bad, count);
}

double OpTally::FailedShare() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

void MetricSet::Add(std::string name, double value, std::string unit) {
  if (!ValidMetricName(name) || !ValidMetricUnit(unit)) {
    errors_.push_back("bad name or unit: " + name + " [" + unit + "]");
    return;
  }
  if (Find(name) != nullptr) {
    errors_.push_back("duplicate metric: " + name);
    return;
  }
  if (!std::isfinite(value)) {
    errors_.push_back("non-finite metric: " + name);
    return;
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

const Metric* MetricSet::Find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

JsonValue MetricsJson(const MetricSet& metrics) {
  JsonObject out;
  for (const Metric& m : metrics.metrics()) {
    out[m.name] = JsonObject{{"unit", m.unit}, {"value", m.value}};
  }
  return out;
}

JsonValue ResultJson(bool correct, const OpTally& ops,
                     const MetricSet& metrics) {
  return JsonObject{
      {"attempted", static_cast<double>(ops.attempted)},
      {"correct", correct && metrics.errors().empty()},
      {"failed", static_cast<double>(ops.failed)},
      {"metrics", MetricsJson(metrics)}};
}

}  // namespace androne::perfbench
