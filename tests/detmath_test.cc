#include "src/util/detmath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/util/histogram.h"

namespace androne {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

enum class DetFn { kSin, kCos, kAsin, kAtan2, kExp, kLog, kLog10, kPow, kHypot };

struct Reference {
  DetFn fn;
  double x;
  double y;
  double hi;  // mpmath's value is hi + lo.
  double lo;
};

constexpr Reference kReference[] = {
#include "tests/detmath_reference.inc"
};

// The accuracy each function promises in src/util/detmath.h, in ulps.
double Bound(DetFn fn) {
  switch (fn) {
    case DetFn::kAtan2:
    case DetFn::kLog10:
    case DetFn::kPow:
    case DetFn::kHypot:
      return 2.0;
    default:
      return 1.0;
  }
}

const char* Name(DetFn fn) {
  static const char* kNames[] = {"Sin", "Cos",   "Asin", "Atan2", "Exp",
                                 "Log", "Log10", "Pow",  "Hypot"};
  return kNames[static_cast<int>(fn)];
}

double Eval(DetFn fn, double x, double y) {
  switch (fn) {
    case DetFn::kSin:
      return detmath::Sin(x);
    case DetFn::kCos:
      return detmath::Cos(x);
    case DetFn::kAsin:
      return detmath::Asin(x);
    case DetFn::kAtan2:
      return detmath::Atan2(x, y);
    case DetFn::kExp:
      return detmath::Exp(x);
    case DetFn::kLog:
      return detmath::Log(x);
    case DetFn::kLog10:
      return detmath::Log10(x);
    case DetFn::kPow:
      return detmath::Pow(x, y);
    case DetFn::kHypot:
      return detmath::Hypot(x, y);
  }
  return kNaN;
}

// The x87 long-double libm: a 64-bit significand, so its own error is a
// few thousandths of a double ulp (the mpmath table below checks that).
long double LongDouble(DetFn fn, double x, double y) {
  switch (fn) {
    case DetFn::kSin:
      return sinl(x);
    case DetFn::kCos:
      return cosl(x);
    case DetFn::kAsin:
      return asinl(x);
    case DetFn::kAtan2:
      return atan2l(x, y);
    case DetFn::kExp:
      return expl(x);
    case DetFn::kLog:
      return logl(x);
    case DetFn::kLog10:
      return log10l(x);
    case DetFn::kPow:
      return powl(x, y);
    case DetFn::kHypot:
      return hypotl(x, y);
  }
  return kNaN;
}

// The spacing of doubles at |ref| (the smallest subnormal at zero).
long double UlpAt(long double ref) {
  double r = std::fabs(static_cast<double>(ref));
  if (r == 0) {
    return std::numeric_limits<double>::denorm_min();
  }
  return std::nextafter(r, kInf) - r;
}

long double UlpError(double got, long double ref) {
  return std::fabs(static_cast<long double>(got) - ref) / UlpAt(ref);
}

TEST(DetmathTest, WithinBoundOfMpmathReferences) {
  for (const Reference& r : kReference) {
    long double ref = static_cast<long double>(r.hi) + r.lo;
    double got = Eval(r.fn, r.x, r.y);
    EXPECT_LE(UlpError(got, ref), Bound(r.fn))
        << Name(r.fn) << "(" << r.x << ", " << r.y << ") = " << got
        << ", mpmath " << r.hi;
  }
}

TEST(DetmathTest, LongDoubleReferenceAgreesWithMpmath) {
  // Validates the dense-grid reference below against mpmath. Subnormal
  // results are skipped: there lo cannot carry mpmath's extra bits.
  for (const Reference& r : kReference) {
    if (std::fabs(r.hi) < std::numeric_limits<double>::min()) {
      continue;
    }
    long double ref = static_cast<long double>(r.hi) + r.lo;
    long double ld = LongDouble(r.fn, r.x, r.y);
    EXPECT_LE(std::fabs(ld - ref) / UlpAt(ref), 0.01L)
        << Name(r.fn) << "(" << r.x << ", " << r.y << ")";
  }
}

struct Grid {
  DetFn fn;
  double lo;
  double hi;
  double y;  // Second argument, fixed.
  bool grid_is_y = false;
};

TEST(DetmathTest, WithinBoundOnDenseGridsOfTheInUseRanges) {
  // In-use ranges: attitude angles and headings (|x| <= pi, and a little
  // beyond), geodesy in radians, the microphone tone phase (to ~1e5), tilt
  // ratios for asin, bearings for atan2, annealing acceptance and the
  // ziggurat wedge for exp, sampler logs in (0, 1], histogram values to
  // 1e10, induced power t^1.5, backoff and bucket bounds for pow, and NED
  // distances for hypot.
  const Grid grids[] = {
      {DetFn::kSin, -3.5, 3.5, 0},
      {DetFn::kSin, -1e5, 1e5, 0},
      {DetFn::kCos, -3.5, 3.5, 0},
      {DetFn::kCos, -1e5, 1e5, 0},
      {DetFn::kAsin, -1.0, 1.0, 0},
      {DetFn::kAtan2, -50.0, 50.0, 0.7},
      {DetFn::kAtan2, -50.0, 50.0, -3.1},
      {DetFn::kAtan2, -50.0, 50.0, 1.3, true},
      {DetFn::kExp, -745.0, 709.0, 0},
      {DetFn::kExp, -8.0, 0.0, 0},
      {DetFn::kLog, 1e-300, 1.0, 0},
      {DetFn::kLog, 0.5, 2.0, 0},
      {DetFn::kLog, 1.0, 1e10, 0},
      {DetFn::kLog10, 1.0, 1e10, 0},
      {DetFn::kLog10, 0.5, 2.0, 0},
      {DetFn::kPow, 0.0, 12.0, 10.0, true},
      {DetFn::kPow, 1e-3, 60.0, 1.5},
      {DetFn::kPow, 1e-6, 2.0, 0.002},
      {DetFn::kPow, 1.0, 4.0, 20.0, true},
      {DetFn::kHypot, -1e4, 1e4, 3.7},
      {DetFn::kHypot, -1.0, 1.0, 1e-3},
  };
  const int kSteps = 200000;
  for (const Grid& g : grids) {
    long double worst = 0;
    double worst_at = 0;
    for (int i = 0; i <= kSteps; ++i) {
      double v = g.lo + (g.hi - g.lo) * i / kSteps;
      double x = g.grid_is_y ? g.y : v;
      double y = g.grid_is_y ? v : g.y;
      long double err = UlpError(Eval(g.fn, x, y), LongDouble(g.fn, x, y));
      if (err > worst) {
        worst = err;
        worst_at = v;
      }
    }
    EXPECT_LE(worst, Bound(g.fn))
        << Name(g.fn) << " on [" << g.lo << ", " << g.hi << "] y=" << g.y
        << ": worst " << static_cast<double>(worst) << " ulp at " << worst_at;
  }
}

TEST(DetmathTest, SpecialValues) {
  using detmath::Asin;
  using detmath::Atan2;
  using detmath::Cos;
  using detmath::Exp;
  using detmath::Hypot;
  using detmath::Log;
  using detmath::Log10;
  using detmath::Pow;
  using detmath::Sin;
  // Signed zeros.
  EXPECT_TRUE(std::signbit(Sin(-0.0)));
  EXPECT_FALSE(std::signbit(Sin(0.0)));
  EXPECT_EQ(Cos(-0.0), 1.0);
  EXPECT_TRUE(std::signbit(Asin(-0.0)));
  EXPECT_EQ(Exp(0.0), 1.0);
  EXPECT_EQ(Exp(-0.0), 1.0);
  EXPECT_EQ(Log(1.0), 0.0);
  EXPECT_EQ(Log10(1.0), 0.0);
  EXPECT_EQ(Log(0.0), -kInf);
  EXPECT_EQ(Log(-0.0), -kInf);
  EXPECT_TRUE(std::signbit(Atan2(-0.0, 1.0)));
  EXPECT_EQ(Atan2(0.0, -1.0), M_PI);
  EXPECT_EQ(Atan2(-0.0, -0.0), -M_PI);
  EXPECT_EQ(Atan2(1.0, 0.0), M_PI_2);
  EXPECT_EQ(Hypot(0.0, -0.0), 0.0);
  EXPECT_EQ(Hypot(-0.0, 0.0, -0.0), 0.0);
  // Infinities.
  EXPECT_TRUE(std::isnan(Sin(kInf)));
  EXPECT_TRUE(std::isnan(Cos(-kInf)));
  EXPECT_EQ(Exp(kInf), kInf);
  EXPECT_EQ(Exp(-kInf), 0.0);
  EXPECT_EQ(Exp(710.0), kInf);
  EXPECT_EQ(Exp(-746.0), 0.0);
  EXPECT_EQ(Log(kInf), kInf);
  EXPECT_EQ(Log10(kInf), kInf);
  EXPECT_EQ(Atan2(kInf, 1.0), M_PI_2);
  EXPECT_EQ(Atan2(1.0, kInf), 0.0);
  EXPECT_EQ(Atan2(1.0, -kInf), M_PI);
  EXPECT_NEAR(Atan2(kInf, kInf), M_PI_4, 1e-15);
  EXPECT_NEAR(Atan2(-kInf, -kInf), -3 * M_PI_4, 1e-15);
  EXPECT_EQ(Hypot(kInf, kNaN), kInf);
  EXPECT_EQ(Hypot(kNaN, -kInf, 1.0), kInf);
  EXPECT_EQ(Pow(kInf, 2.0), kInf);
  EXPECT_EQ(Pow(kInf, -2.0), 0.0);
  EXPECT_EQ(Pow(0.5, kInf), 0.0);
  EXPECT_EQ(Pow(2.0, kInf), kInf);
  EXPECT_EQ(Pow(-1.0, kInf), 1.0);
  EXPECT_EQ(Pow(-kInf, 3.0), -kInf);
  // NaN in, NaN out; domain edges.
  EXPECT_TRUE(std::isnan(Sin(kNaN)));
  EXPECT_TRUE(std::isnan(Exp(kNaN)));
  EXPECT_TRUE(std::isnan(Log(-1.0)));
  EXPECT_TRUE(std::isnan(Log10(-1e-300)));
  EXPECT_TRUE(std::isnan(Log(kNaN)));
  EXPECT_TRUE(std::isnan(Asin(1.0000000000000002)));
  EXPECT_TRUE(std::isnan(Asin(kNaN)));
  EXPECT_TRUE(std::isnan(Atan2(kNaN, 1.0)));
  EXPECT_TRUE(std::isnan(Pow(-2.0, 0.5)));
  EXPECT_TRUE(std::isnan(Pow(kNaN, 2.0)));
  EXPECT_TRUE(std::isnan(Hypot(kNaN, 1.0)));
  EXPECT_EQ(Pow(kNaN, 0.0), 1.0);
  EXPECT_EQ(Pow(1.0, kNaN), 1.0);
  EXPECT_EQ(Asin(1.0), M_PI_2);
  EXPECT_EQ(Asin(-1.0), -M_PI_2);
  EXPECT_EQ(Pow(-2.0, 3.0), -8.0);
  EXPECT_EQ(Pow(-2.0, -2.0), 0.25);
  EXPECT_TRUE(std::signbit(Pow(-0.0, 3.0)));
  EXPECT_EQ(Pow(-0.0, -3.0), -kInf);
  EXPECT_EQ(Pow(0.0, -2.0), kInf);
  // Subnormals and the ends of the range.
  EXPECT_NEAR(Log(5e-324), -744.44007192138126, 1e-12);
  EXPECT_GT(Exp(-745.0), 0.0);
  EXPECT_EQ(Hypot(3e-320, 4e-320), 5e-320);
  EXPECT_EQ(Hypot(3e300, 4e300), 5e300);
  EXPECT_EQ(Hypot(3e300, 4e300, 0.0), 5e300);
  // Huge sin/cos arguments stay finite and in range.
  for (double x : {1.6e6, 1e9, 1e15, 1e22, 1e300, -1.7e308}) {
    double s, c;
    detmath::SinCos(x, &s, &c);
    EXPECT_TRUE(std::isfinite(s) && std::isfinite(c)) << x;
    EXPECT_LE(std::fabs(s), 1.0) << x;
    EXPECT_LE(std::fabs(c), 1.0) << x;
    EXPECT_EQ(s, Sin(x)) << x;
    EXPECT_EQ(c, Cos(x)) << x;
  }
}

TEST(DetmathTest, ExactAtPowersOfTwoAndTen) {
  for (int k = 0; k <= 22; ++k) {
    double p = std::stod("1e" + std::to_string(k));
    EXPECT_EQ(detmath::Pow(10.0, k), p) << k;
    EXPECT_EQ(detmath::Log10(p), k) << k;
  }
  for (int k = -1074; k <= 1023; ++k) {
    EXPECT_EQ(detmath::Pow(2.0, k), std::ldexp(1.0, k)) << k;
  }
  EXPECT_EQ(detmath::Pow(1.5, 7.0), 2187.0 / 128.0);
  EXPECT_EQ(detmath::Pow(9.0, 0.5), 3.0);
}

TEST(DetmathTest, SinCosMatchesSinAndCos) {
  for (int i = -20000; i <= 20000; ++i) {
    double x = i * 0.000731;
    double s, c;
    detmath::SinCos(x, &s, &c);
    ASSERT_EQ(s, detmath::Sin(x)) << x;
    ASSERT_EQ(c, detmath::Cos(x)) << x;
  }
}

TEST(DetmathTest, HypotIsTheSquareRootOfTheSumOfSquaresInRange) {
  // The simulated paths rely on this: Hypot is a drop-in for the
  // std::sqrt(a*a + b*b [+ c*c]) they computed before.
  for (int i = -500; i <= 500; ++i) {
    double a = i * 0.173;
    double b = 2.5 - i * 0.0041;
    double c = 9.80665 + i * 1e-3;
    ASSERT_EQ(detmath::Hypot(a, b), std::sqrt(a * a + b * b));
    ASSERT_EQ(detmath::Hypot(a, b, c), std::sqrt(a * a + b * b + c * c));
  }
}

// Exact output bits for fixed inputs: any change to a kernel, a
// coefficient or the evaluation order shows up here (and would move every
// digest). Regenerate only with a deliberate numerics change.
struct Pinned {
  DetFn fn;
  double x;
  double y;
  uint64_t bits;
};

constexpr Pinned kPinned[] = {
    {DetFn::kSin, 0.1, 0, 0x3fb98eaecb8bcb2cULL},
    {DetFn::kSin, -2.5, 0, 0xbfe326af0dcfcab0ULL},
    {DetFn::kSin, 12345.678, 0, 0xbfe687d5890974a5ULL},
    {DetFn::kCos, 0.7, 0, 0x3fe87996529f9d93ULL},
    {DetFn::kCos, 3.0, 0, 0xbfefae04be85e5d2ULL},
    {DetFn::kCos, -100.25, 0, 0x3feebec72ba6b0ecULL},
    {DetFn::kAsin, 0.05, 0, 0x3fa99c5570328659ULL},
    {DetFn::kAsin, -0.7, 0, 0xbfe8d00e692afd95ULL},
    {DetFn::kAsin, 0.99, 0, 0x3ff6de3c6f33d51dULL},
    {DetFn::kAtan2, 0.3, 0.9, 0x3fd4978fa3269ee1ULL},
    {DetFn::kAtan2, -2.0, -0.5, 0xbffd0d6a1369bd34ULL},
    {DetFn::kExp, -0.5, 0, 0x3fe368b2fc6f960aULL},
    {DetFn::kExp, 3.3, 0, 0x403b1cd5e7807b7bULL},
    {DetFn::kExp, -300.1, 0, 0x24e08846d46b03baULL},
    {DetFn::kLog, 0.3, 0, 0xbff34378fcbda721ULL},
    {DetFn::kLog, 1.3, 0, 0x3fd0ca937be1b9dcULL},
    {DetFn::kLog, 7.7e-20, 0, 0xc046015775747965ULL},
    {DetFn::kLog10, 2.0, 0, 0x3fd34413509f79ffULL},
    {DetFn::kLog10, 123456.0, 0, 0x40145db55fe4b478ULL},
    {DetFn::kPow, 10.0, 0.1, 0x3ff4248ef8fc2604ULL},
    {DetFn::kPow, 7.25, 1.5, 0x4033856ed5390584ULL},
    {DetFn::kPow, 0.0004, 0.002, 0x3fef80cefee80b0fULL},
    {DetFn::kHypot, 3.1, -4.2, 0x4014e16fdacff937ULL},
};

TEST(DetmathTest, PinnedOutputBits) {
  for (const Pinned& p : kPinned) {
    uint64_t got = std::bit_cast<uint64_t>(Eval(p.fn, p.x, p.y));
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, p.bits) << Name(p.fn) << "(" << p.x << ", " << p.y
                           << ") now " << hex;
  }
}

TEST(DetmathTest, HistogramBucketsMatchTheLibmFormula) {
  // Histogram::BucketFor was floor(std::log10(v) * bpd) + 1 and its upper
  // bound ceil(std::pow(10, i / bpd)); detmath must put every value where
  // libm did, 1, 10, ..., 1e9 included.
  const int kBpd = 10;
  const int kDecades = 8;
  auto libm_upper = [&](int64_t v) -> int64_t {
    size_t bucket = v < 1 ? 0
                          : static_cast<size_t>(
                                std::log10(static_cast<double>(v)) * kBpd) +
                                1;
    bucket = std::min<size_t>(bucket, kBpd * kDecades);
    return bucket == 0 ? 1
                       : static_cast<int64_t>(std::ceil(std::pow(
                             10.0, static_cast<double>(bucket) / kBpd)));
  };
  std::vector<int64_t> values;
  for (int64_t p = 1; p <= 1000000000; p *= 10) {
    values.push_back(p);
    values.push_back(p - 1);
    values.push_back(p + 1);
  }
  for (int64_t v = 1; v <= 200000; ++v) {
    values.push_back(v);
  }
  for (int64_t v = 200000; v < 4000000000; v = v * 1001 / 1000 + 7) {
    values.push_back(v);
  }
  for (int64_t v : values) {
    Histogram h(kBpd, kDecades);
    h.Record(v);
    auto buckets = h.NonEmptyBuckets();
    ASSERT_EQ(buckets.size(), 1u);
    ASSERT_EQ(buckets[0].first, libm_upper(v)) << v;
  }
}

}  // namespace
}  // namespace androne
