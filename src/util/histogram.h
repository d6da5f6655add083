// Latency histogram with logarithmic buckets, mirroring how cyclictest
// results are reported in the paper's Figure 11 (log-log sample-count vs
// latency plot). Also used by the network benchmarks.
#ifndef SRC_UTIL_HISTOGRAM_H_
#define SRC_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace androne {

class Histogram {
 public:
  // Buckets are log-spaced with |buckets_per_decade| per factor-of-10 over
  // [1, 10^decades). Values below 1 land in bucket 0.
  explicit Histogram(int buckets_per_decade = 10, int decades = 8);

  void Record(int64_t value);
  void Record(int64_t value, uint64_t count);

  uint64_t total_count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double stddev() const;

  // Value at or below which |fraction| of samples fall (0 <= fraction <= 1).
  // Returns an upper bucket boundary, so it is conservative.
  int64_t Percentile(double fraction) const;

  // (bucket_upper_bound, count) pairs for non-empty buckets, ascending.
  std::vector<std::pair<int64_t, uint64_t>> NonEmptyBuckets() const;

  // Folds |other| into this histogram. Exact (bucket-by-bucket) when both
  // share a bucket layout; otherwise each of |other|'s non-empty buckets is
  // re-recorded at its upper bound. The fleet executor's merge stage uses
  // this to aggregate per-world histograms.
  void Merge(const Histogram& other);

  // Order-sensitive FNV-1a digest of the full bucket state plus the summary
  // moments. Two histograms with identical recorded streams digest equal;
  // used by the fleet determinism checks.
  uint64_t Digest() const;

  // Multi-line summary: count/min/mean/max/p99 plus a bucket table.
  std::string ToString(const std::string& unit = "") const;

  // Checkpoint support (DESIGN.md §13): the full accumulator state. The
  // moment sums travel bit-exactly (they are order-dependent double
  // accumulations, so recomputing them from buckets would not reproduce
  // Digest()). The bucket layout is construction-time config and must match.
  template <class Ar>
  void Visit(Ar& ar) {
    ar.Match(buckets_.size(), "histogram bucket count");
    for (uint64_t& bucket : buckets_) {
      ar.U64(bucket);
    }
    ar.U64(count_);
    ar.F64(sum_);
    ar.F64(sum_sq_);
    ar.I64(min_);
    ar.I64(max_);
  }

 private:
  size_t BucketFor(int64_t value) const;
  int64_t BucketUpperBound(size_t index) const;

  int buckets_per_decade_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace androne

#endif  // SRC_UTIL_HISTOGRAM_H_
