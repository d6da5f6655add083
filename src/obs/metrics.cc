#include "src/obs/metrics.h"

#include <cmath>
#include <cstdio>

#include "src/util/bytes.h"

namespace androne {

namespace {

// Integral values print as integers so counter exports are stable and
// readable; everything else uses enough digits to round-trip.
void AppendValue(std::string& out, double v) {
  char buf[48];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

}  // namespace

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[name] = value;
  }
  for (const auto& [name, hist] : other.histograms) {
    // First sight of a name copies the source (keeping its bucket layout —
    // a default-constructed destination would clamp wider histograms);
    // later merges of the shared layout are bucket-exact.
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms.emplace(name, hist);
    } else {
      it->second.Merge(hist);
    }
  }
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += "counter ";
    out += name;
    out += " ";
    AppendValue(out, value);
    out += "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += "gauge ";
    out += name;
    out += " ";
    AppendValue(out, value);
    out += "\n";
  }
  for (const auto& [name, hist] : histograms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "hist %s count=%llu min=%lld mean=%.6f max=%lld p99=%lld\n",
                  name.c_str(),
                  static_cast<unsigned long long>(hist.total_count()),
                  static_cast<long long>(hist.min()), hist.mean(),
                  static_cast<long long>(hist.max()),
                  static_cast<long long>(hist.Percentile(0.99)));
    out += buf;
  }
  return out;
}

uint64_t MetricsSnapshot::Digest() const {
  uint64_t digest = kFnv1a64Offset;
  for (const auto& [name, value] : counters) {
    digest = Fnv1a64(name.data(), name.size(), digest);
    digest = Fnv1a64Value(value, digest);
  }
  for (const auto& [name, value] : gauges) {
    digest = Fnv1a64(name.data(), name.size(), digest);
    digest = Fnv1a64Value(value, digest);
  }
  for (const auto& [name, hist] : histograms) {
    digest = Fnv1a64(name.data(), name.size(), digest);
    digest = Fnv1a64Value(hist.Digest(), digest);
  }
  return digest;
}

void MetricsRegistry::Add(const std::string& name, double delta) {
  Counter(name) += delta;
}

double& MetricsRegistry::Counter(const std::string& name) {
  return counters_[name];
}

void MetricsRegistry::Set(const std::string& name, double value) {
  gauges_[name] = value;
}

Histogram& MetricsRegistry::Hist(const std::string& name) {
  return histograms_[name];
}

Histogram& MetricsRegistry::Hist(const std::string& name,
                                 int buckets_per_decade, int decades) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(buckets_per_decade, decades))
             .first;
  }
  return it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.counters = counters_;
  snapshot.gauges = gauges_;
  snapshot.histograms = histograms_;
  return snapshot;
}

void MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsSnapshot MetricsRegistry::MergeIndexOrder(
    const std::vector<MetricsSnapshot>& worlds) {
  MetricsSnapshot merged;
  for (const MetricsSnapshot& world : worlds) {
    merged.Merge(world);
  }
  return merged;
}

}  // namespace androne
