#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/snapshot/archive.h"
#include "src/snapshot/snapshot.h"
#include "src/util/sim_clock.h"

namespace androne {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextU64BelowRespectsBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextU64Below(bound), bound);
    }
  }
  EXPECT_EQ(rng.NextU64Below(0), 0u);
}

TEST(RngTest, GaussianMomentsApproximatelyCorrect) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian(5.0, 2.0);
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    double e = rng.Exponential(3.0);
    EXPECT_GE(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng forked = a.Fork();
  // The fork and parent should not track each other.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == forked.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

// ---- The ziggurat normal sampler ----

// Standard normal CDF (libm's erfc is fine here: it only judges the test).
double Phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(ZigguratTest, MomentsAndTailMassesMatchTheNormal) {
  Rng rng(101);
  const int n = 2000000;
  double sum = 0, sum_sq = 0;
  int beyond3 = 0, beyond4 = 0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
    beyond3 += std::fabs(g) > 3.0 ? 1 : 0;
    beyond4 += std::fabs(g) > 4.0 ? 1 : 0;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  // Standard errors: mean 1/sqrt(n) = 7e-4, variance sqrt(2/n) = 1e-3.
  EXPECT_NEAR(mean, 0.0, 4e-3);
  EXPECT_NEAR(var, 1.0, 5e-3);
  // P(|g| > 3) = 2.6998e-3 (5399 expected, sd 73); P(|g| > 4) = 6.334e-5
  // (127 expected, sd 11): both also exercise the tail beyond R = 3.654.
  double p3 = 2.0 * Phi(-3.0);
  double p4 = 2.0 * Phi(-4.0);
  EXPECT_NEAR(beyond3, p3 * n, 5 * std::sqrt(p3 * n));
  EXPECT_NEAR(beyond4, p4 * n, 5 * std::sqrt(p4 * n));
}

TEST(ZigguratTest, KolmogorovSmirnovAgainstPhi) {
  Rng rng(103);
  const int n = 200000;
  std::vector<double> draws(n);
  for (double& g : draws) {
    g = rng.NextGaussian();
  }
  std::sort(draws.begin(), draws.end());
  double d = 0;
  for (int i = 0; i < n; ++i) {
    double cdf = Phi(draws[static_cast<size_t>(i)]);
    d = std::max({d, cdf - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - cdf});
  }
  // The 1% critical value of the KS statistic is 1.628 / sqrt(n).
  EXPECT_LT(d, 1.628 / std::sqrt(static_cast<double>(n))) << "D = " << d;
}

TEST(ZigguratTest, CheckpointRoundTripMidStream) {
  // The xoshiro words are the sampler's whole state: a stream restored
  // mid-way (including right after a wedge or tail draw) continues with
  // exactly the draws the original goes on to make.
  Rng rng(107);
  for (int i = 0; i < 12345; ++i) {
    rng.NextGaussian();
  }
  SnapshotWriter w;
  TimerRegistry timers;
  SimClock clock;
  SaveArchive save(w, timers, clock);
  rng.Visit(save);
  std::vector<double> expected;
  for (int i = 0; i < 5000; ++i) {
    expected.push_back(rng.NextGaussian());
  }

  Rng restored(999);
  SnapshotReader r(w.bytes());
  LoadArchive load(r);
  restored.Visit(load);
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  EXPECT_EQ(r.remaining(), 0u);
  for (double want : expected) {
    ASSERT_EQ(restored.NextGaussian(), want);
  }
}

}  // namespace
}  // namespace androne
