#include "src/util/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/util/bytes.h"
#include "src/util/detmath.h"

namespace androne {

Histogram::Histogram(int buckets_per_decade, int decades)
    : buckets_per_decade_(buckets_per_decade),
      buckets_(static_cast<size_t>(buckets_per_decade) * decades + 1, 0) {}

size_t Histogram::BucketFor(int64_t value) const {
  if (value < 1) {
    return 0;
  }
  double idx = detmath::Log10(static_cast<double>(value)) * buckets_per_decade_;
  size_t bucket = static_cast<size_t>(idx) + 1;
  return std::min(bucket, buckets_.size() - 1);
}

int64_t Histogram::BucketUpperBound(size_t index) const {
  if (index == 0) {
    return 1;
  }
  return static_cast<int64_t>(
      std::ceil(detmath::Pow(10.0, static_cast<double>(index) /
                                       buckets_per_decade_)));
}

void Histogram::Record(int64_t value) { Record(value, 1); }

void Histogram::Record(int64_t value, uint64_t count) {
  if (count == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += count;
  sum_ += static_cast<double>(value) * static_cast<double>(count);
  sum_sq_ += static_cast<double>(value) * static_cast<double>(value) *
             static_cast<double>(count);
  buckets_[BucketFor(value)] += count;
}

double Histogram::stddev() const {
  if (count_ < 2) {
    return 0.0;
  }
  double n = static_cast<double>(count_);
  double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1);
  return var > 0 ? std::sqrt(var) : 0.0;
}

int64_t Histogram::Percentile(double fraction) const {
  if (count_ == 0) {
    return 0;
  }
  fraction = std::clamp(fraction, 0.0, 1.0);
  uint64_t target = static_cast<uint64_t>(
      std::ceil(fraction * static_cast<double>(count_)));
  target = std::max<uint64_t>(target, 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::min<int64_t>(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

std::vector<std::pair<int64_t, uint64_t>> Histogram::NonEmptyBuckets() const {
  std::vector<std::pair<int64_t, uint64_t>> out;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] > 0) {
      out.emplace_back(BucketUpperBound(i), buckets_[i]);
    }
  }
  return out;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (buckets_per_decade_ == other.buckets_per_decade_ &&
      buckets_.size() == other.buckets_.size()) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    return;
  }
  // Layout mismatch: degrade gracefully by re-recording bucket summaries.
  for (const auto& [upper, n] : other.NonEmptyBuckets()) {
    Record(upper, n);
  }
}

uint64_t Histogram::Digest() const {
  uint64_t h = Fnv1a64Value(count_);
  h = Fnv1a64Value(min_, h);
  h = Fnv1a64Value(max_, h);
  h = Fnv1a64Value(sum_, h);
  h = Fnv1a64Value(sum_sq_, h);
  h = Fnv1a64(buckets_.data(), buckets_.size() * sizeof(uint64_t), h);
  return h;
}

std::string Histogram::ToString(const std::string& unit) const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "samples=%llu min=%lld%s mean=%.1f%s p99=%lld%s max=%lld%s",
                static_cast<unsigned long long>(count_),
                static_cast<long long>(min()), unit.c_str(), mean(),
                unit.c_str(), static_cast<long long>(Percentile(0.99)),
                unit.c_str(), static_cast<long long>(max()), unit.c_str());
  return line;
}

}  // namespace androne
