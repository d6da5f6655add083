#include "src/util/histogram.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/util/rng.h"

namespace androne {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_TRUE(h.NonEmptyBuckets().empty());
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.total_count(), 3u);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_NEAR(h.stddev(), 10.0, 1e-9);
}

TEST(HistogramTest, WeightedRecord) {
  Histogram h;
  h.Record(5, 100);
  EXPECT_EQ(h.total_count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  h.Record(5, 0);  // No-op.
  EXPECT_EQ(h.total_count(), 100u);
}

TEST(HistogramTest, PercentileBounded) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(i);
  }
  // Log buckets make percentiles conservative (upper bucket bound), but they
  // must be ordered and within [min, max].
  int64_t p50 = h.Percentile(0.50);
  int64_t p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  EXPECT_GE(p50, 500);
  EXPECT_LE(p50, 650);
}

TEST(HistogramTest, NonEmptyBucketsAscendAndSumToCount) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextU64Below(100000)) + 1);
  }
  auto buckets = h.NonEmptyBuckets();
  ASSERT_FALSE(buckets.empty());
  uint64_t total = 0;
  int64_t prev = -1;
  for (const auto& [bound, count] : buckets) {
    EXPECT_GT(bound, prev);
    prev = bound;
    total += count;
  }
  EXPECT_EQ(total, h.total_count());
}

TEST(HistogramTest, HugeValuesClampToLastBucket) {
  Histogram h(10, 8);
  h.Record(static_cast<int64_t>(1e18));
  EXPECT_EQ(h.total_count(), 1u);
  EXPECT_EQ(h.NonEmptyBuckets().size(), 1u);
}

TEST(HistogramTest, ToStringMentionsStats) {
  Histogram h;
  h.Record(100);
  std::string s = h.ToString("us");
  EXPECT_NE(s.find("samples=1"), std::string::npos);
  EXPECT_NE(s.find("100us"), std::string::npos);
}

TEST(HistogramTest, MergeMatchesSingleStreamRecording) {
  Histogram a(10, 6);
  Histogram b(10, 6);
  Histogram combined(10, 6);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    int64_t v = static_cast<int64_t>(std::exp(rng.Gaussian(5.0, 1.5)));
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.total_count(), combined.total_count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  EXPECT_EQ(a.NonEmptyBuckets(), combined.NonEmptyBuckets());
  EXPECT_EQ(a.Percentile(0.99), combined.Percentile(0.99));
}

TEST(HistogramTest, MergeEmptySidesAreNoOps) {
  Histogram a(10, 6);
  Histogram empty(10, 6);
  a.Record(42);
  uint64_t before = a.Digest();
  a.Merge(empty);
  EXPECT_EQ(a.Digest(), before);
  empty.Merge(a);
  EXPECT_EQ(empty.Digest(), before);
}

TEST(HistogramTest, DigestDistinguishesStreams) {
  Histogram a(10, 6);
  Histogram b(10, 6);
  a.Record(100);
  b.Record(101);
  EXPECT_NE(a.Digest(), b.Digest());
  Histogram c(10, 6);
  c.Record(100);
  EXPECT_EQ(a.Digest(), c.Digest());
}

TEST(HistogramTest, MergeAcrossLayoutsKeepsCount) {
  Histogram fine(20, 8);
  Histogram coarse(5, 6);
  for (int i = 1; i <= 100; ++i) {
    fine.Record(i * 7);
  }
  coarse.Merge(fine);
  EXPECT_EQ(coarse.total_count(), 100u);
}

}  // namespace
}  // namespace androne
