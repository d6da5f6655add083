#include "src/util/detmath.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace androne::detmath {

namespace {

#include "src/util/detmath_coeffs.inc"

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Adding and subtracting 1.5 * 2^52 rounds |x| < 2^51 to the nearest
// integer (ties to even) with two exact-rounding operations.
constexpr double kRoundShift = 0x1.8p52;

double RoundToInt(double x) { return (x + kRoundShift) - kRoundShift; }

// c[0] + c[1] z + ... + c[N-1] z^(N-1) by Estrin's scheme: the pieces are
// independent, so the dependency chain is log2(N) multiply-adds long
// instead of Horner's N. zp[j] holds z^(2^j).
template <size_t Lo, size_t Len, size_t N>
double Estrin(const double (&c)[N], const double* zp) {
  if constexpr (Len == 1) {
    return c[Lo];
  } else if constexpr (Len == 2) {
    return c[Lo] + c[Lo + 1] * zp[0];
  } else {
    constexpr size_t kHalf = std::bit_floor(Len - 1);
    constexpr int kPow = std::countr_zero(kHalf);
    return Estrin<Lo, kHalf>(c, zp) +
           Estrin<Lo + kHalf, Len - kHalf>(c, zp) * zp[kPow];
  }
}

template <size_t N>
double Poly(const double (&c)[N], double z) {
  static_assert(N <= 16);
  double zp[4] = {z, 0, 0, 0};
  if constexpr (N > 2) {
    zp[1] = z * z;
  }
  if constexpr (N > 4) {
    zp[2] = zp[1] * zp[1];
  }
  if constexpr (N > 8) {
    zp[3] = zp[2] * zp[2];
  }
  return Estrin<0, N>(c, zp);
}

// The sum and product of two doubles as unevaluated pairs hi + lo (Knuth's
// TwoSum; Dekker's product with Veltkamp splitting, so no FMA is needed).
struct Pair {
  double hi;
  double lo;
};

Pair TwoSum(double a, double b) {
  const double s = a + b;
  const double bb = s - a;
  return {s, (a - (s - bb)) + (b - bb)};
}

Pair FastTwoSum(double a, double b) {  // |a| >= |b|
  const double s = a + b;
  return {s, b - (s - a)};
}

Pair Split(double a) {
  const double c = 134217729.0 * a;  // 2^27 + 1
  const double hi = c - (c - a);
  return {hi, a - hi};
}

Pair TwoProduct(double a, double b) {
  const double p = a * b;
  const Pair as = Split(a);
  const Pair bs = Split(b);
  const double err = ((as.hi * bs.hi - p) + as.hi * bs.lo + as.lo * bs.hi) +
                     as.lo * bs.lo;
  return {p, err};
}

// ---- sin / cos ----

// sin(x + y) for |x| <= pi/4 and |y| far below |x|: x plus a correction
// under a tenth of it, so the sum rounds once at the end.
double KernelSin(double x, double y) {
  const double z = x * x;
  return x + (x * z * Poly(kSinPoly, z) + y * (1.0 - 0.5 * z));
}

// cos(x + y) for |x| <= pi/4: 1 - x^2/2 carried in two parts so the
// rounding of 1 - x^2/2 is recovered.
double KernelCos(double x, double y) {
  const double z = x * x;
  const double r = z * Poly(kCosPoly, z);
  const double hz = 0.5 * z;
  const double w = 1.0 - hz;
  return w + (((1.0 - w) - hz) + (z * r - x * y));
}

// Reduces x to hi + lo in [-pi/4, pi/4] (about) and returns the quadrant.
// Cody-Waite with pi/2 in three 33-bit pieces is accurate for
// |x| < 2^20 * pi/2; larger arguments are first reduced exactly modulo the
// double nearest 2*pi, which keeps the result finite and deterministic but
// lets the phase drift by about |x| * 2^-53 radians.
int64_t Reduce(double x, double* hi, double* lo) {
  if (std::fabs(x) >= 0x1p20 * kPio2_1) {
    x = std::remainder(x, 4 * kPio2Hi);
  }
  const double fn = RoundToInt(x * kTwoOverPi);
  const double r = x - fn * kPio2_1;  // Exact: n * kPio2_1 is exact.
  const Pair d = TwoSum(r, -(fn * kPio2_2));
  // lo may exceed half an ulp of hi; both kernels only need it small.
  *hi = d.hi;
  *lo = d.lo - fn * kPio2_3;
  return static_cast<int64_t>(fn);
}

// ---- exp / log ----

// y * 2^k for y near 1, including the gradual-underflow and overflow ends.
double Scale(double y, int64_t k) {
  if (k > 1023) {
    y *= 0x1p1023;
    k -= 1023;
    if (k > 1023) {
      return y * kInf;
    }
  } else if (k < -1021) {
    y *= 0x1p-1000;
    k += 1000;
    if (k < -1021) {
      return y * 0.0;
    }
  }
  return y * std::bit_cast<double>(static_cast<uint64_t>(k + 1023) << 52);
}

// exp(hi - lo) * 2^k for |hi - lo| <= ln(2)/2 (fdlibm's rational form:
// r * coth(r/2) = 2 + r^2 P(r^2)).
double ExpCore(double hi, double lo, int64_t k) {
  const double r = hi - lo;
  const double z = r * r;
  const double c = r - z * Poly(kExpPoly, z);
  const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  return Scale(y, k);
}

// x = 2^k * m with m in [sqrt(1/2), sqrt(2)); x finite and positive.
double Decompose(double x, int64_t* k) {
  uint64_t bits = std::bit_cast<uint64_t>(x);
  int64_t e = 0;
  if (bits < 0x0010000000000000ULL) {  // Subnormal.
    bits = std::bit_cast<uint64_t>(x * 0x1p54);
    e = -54;
  }
  e += static_cast<int64_t>(bits >> 52) - 1023;
  bits = (bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL;
  if (bits >= 0x3ff6a09e667f3bcdULL) {  // m >= sqrt(2): halve it.
    bits -= 0x0010000000000000ULL;
    ++e;
  }
  *k = e;
  return std::bit_cast<double>(bits);
}

// log(1 + f) for f = m - 1 as the pair f - hfsq + s * (hfsq + R), with
// s = f / (2 + f) and 2 atanh(s) = 2s + s R.
struct Log1pParts {
  double hfsq;
  double s_term;  // s * (hfsq + R)
};

Log1pParts Log1pReduced(double f) {
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double r = z * Poly(kLogPoly, z);
  const double hfsq = 0.5 * f * f;
  return {hfsq, s * (hfsq + r)};
}

// NaN, or a signalling value for the non-finite and non-positive inputs of
// Log and Log10; returns false when x needs no special value.
bool LogSpecial(double x, double* out) {
  if (x > 0 && x < kInf) {
    return false;
  }
  if (x == 0) {
    *out = -kInf;
  } else if (x == kInf) {
    *out = kInf;
  } else {
    *out = kNaN;
  }
  return true;
}

// log(x) as an unevaluated pair accurate to about 2^-68 relative, for Pow:
// Log's terms, with f - f^2/2 carried exactly.
Pair LogPair(double x) {
  int64_t k;
  const double f = Decompose(x, &k) - 1.0;
  const Log1pParts p = Log1pReduced(f);
  const Pair ff = TwoProduct(f, f);  // p.hfsq == 0.5 * ff.hi exactly.
  const Pair a = FastTwoSum(f, -p.hfsq);
  const Pair l = FastTwoSum(a.hi, p.s_term - 0.5 * ff.lo + a.lo);
  const double dk = static_cast<double>(k);
  const Pair sum = TwoSum(dk * kLn2Hi, l.hi);
  return FastTwoSum(sum.hi, sum.lo + l.lo + dk * kLn2Lo);
}

// ---- atan ----

// atan(u) for u >= 0 (fdlibm's reduction to |u| <= 7/16).
double AtanPositive(double u) {
  if (u >= 0x1p66) {
    return kPio2Hi + kPio2Lo;
  }
  double hi;
  double lo;
  if (u < 0.4375) {
    if (u < 0x1p-29) {
      return u;
    }
    const double z = u * u;
    return u + u * (z * Poly(kAtanPoly, z));
  } else if (u < 0.6875) {
    hi = kAtanHalfHi;
    lo = kAtanHalfLo;
    u = (2.0 * u - 1.0) / (2.0 + u);
  } else if (u < 1.1875) {
    hi = kAtanOneHi;
    lo = kAtanOneLo;
    u = (u - 1.0) / (u + 1.0);
  } else if (u < 2.4375) {
    hi = kAtanOneAndHalfHi;
    lo = kAtanOneAndHalfLo;
    u = (u - 1.5) / (1.0 + 1.5 * u);
  } else {
    hi = kPio2Hi;
    lo = kPio2Lo;
    u = -1.0 / u;
  }
  const double z = u * u;
  const double q = u * (z * Poly(kAtanPoly, z));
  return hi - ((-q - lo) - u);
}

}  // namespace

void SinCos(double x, double* sin_x, double* cos_x) {
  if (std::fabs(x) < 0x1p-27) {
    *sin_x = x;  // Keeps the sign of zero.
    *cos_x = 1.0;
    return;
  }
  if (std::fabs(x) <= kPio4Hi) {
    *sin_x = KernelSin(x, 0.0);
    *cos_x = KernelCos(x, 0.0);
    return;
  }
  if (!(std::fabs(x) < kInf)) {
    *sin_x = *cos_x = x - x;  // NaN for inf and NaN.
    return;
  }
  double hi;
  double lo;
  const int64_t n = Reduce(x, &hi, &lo);
  const double s = KernelSin(hi, lo);
  const double c = KernelCos(hi, lo);
  switch (n & 3) {
    case 0:
      *sin_x = s;
      *cos_x = c;
      break;
    case 1:
      *sin_x = c;
      *cos_x = -s;
      break;
    case 2:
      *sin_x = -s;
      *cos_x = -c;
      break;
    default:
      *sin_x = -c;
      *cos_x = s;
      break;
  }
}

double Sin(double x) {
  if (std::fabs(x) < 0x1p-27) {
    return x;
  }
  if (std::fabs(x) <= kPio4Hi) {
    return KernelSin(x, 0.0);
  }
  if (!(std::fabs(x) < kInf)) {
    return x - x;
  }
  double hi;
  double lo;
  const int64_t n = Reduce(x, &hi, &lo);
  const double v = (n & 1) != 0 ? KernelCos(hi, lo) : KernelSin(hi, lo);
  return (n & 2) != 0 ? -v : v;
}

double Cos(double x) {
  if (std::fabs(x) <= kPio4Hi) {
    return KernelCos(x, 0.0);
  }
  if (!(std::fabs(x) < kInf)) {
    return x - x;
  }
  double hi;
  double lo;
  const int64_t n = Reduce(x, &hi, &lo);
  const double v = (n & 1) != 0 ? KernelSin(hi, lo) : KernelCos(hi, lo);
  return ((n + 1) & 2) != 0 ? -v : v;
}

double Asin(double x) {
  const double ax = std::fabs(x);
  if (ax < 0.5) {
    if (ax < 0x1p-26) {
      return x;
    }
    const double z = x * x;
    return x + x * (z * Poly(kAsinPoly, z));
  }
  if (!(ax < 1.0)) {
    return ax == 1.0 ? x * kPio2Hi + x * kPio2Lo : kNaN;
  }
  // asin(x) = pi/2 - 2 asin(s), s = sqrt((1 - |x|) / 2) <= 1/2.
  const double t = (1.0 - ax) * 0.5;
  const double s = std::sqrt(t);
  const double r = t * Poly(kAsinPoly, t);  // asin(s) = s + s r
  double result;
  if (ax >= 0.975) {
    result = kPio2Hi - (2.0 * (s + s * r) - kPio2Lo);
  } else {
    // s = w + c with w exact to 32 bits, so 2w is subtracted exactly.
    const double w = std::bit_cast<double>(std::bit_cast<uint64_t>(s) &
                                           0xffffffff00000000ULL);
    const double c = (t - w * w) / (s + w);
    const double p = 2.0 * s * r - (kPio2Lo - 2.0 * c);
    const double q = kPio4Hi - 2.0 * w;
    result = kPio4Hi - (p - q);
  }
  return x < 0 ? -result : result;
}

double Atan2(double y, double x) {
  if (std::isnan(x) || std::isnan(y)) {
    return x + y;
  }
  const bool x_neg = std::signbit(x);
  const double ay = std::fabs(y);
  const double ax = std::fabs(x);
  if (ay == 0) {
    return x_neg ? std::copysign(kPiHi + kPiLo, y) : y;
  }
  double z;  // atan2(|y|, x)
  if (ax == kInf) {
    z = ay == kInf ? kPio4Hi + 0.5 * kPio2Lo : 0.0;
    if (x_neg) {
      z = ay == kInf ? 3.0 * z : kPiHi + kPiLo;
    }
  } else if (ax == 0 || ay == kInf) {
    z = kPio2Hi + kPio2Lo;
  } else {
    z = AtanPositive(ay / ax);
    if (x_neg) {
      z = kPiHi - (z - kPiLo);
    }
  }
  return std::signbit(y) ? -z : z;
}

double Exp(double x) {
  if (!(x < 709.782712893383973096)) {
    return x != x ? x : kInf;  // NaN, or overflow (and +inf).
  }
  if (x < -745.13321910194110842) {
    return 0.0;  // Underflow, and -inf.
  }
  if (std::fabs(x) < 0x1p-28) {
    return 1.0 + x;
  }
  const double fk = RoundToInt(x * kLog2e);
  // k * kLn2Hi is exact (40-bit constant) and x - k * kLn2Hi cancels
  // exactly (Sterbenz), so the reduction's only rounding is in lo.
  return ExpCore(x - fk * kLn2Hi, fk * kLn2Lo, static_cast<int64_t>(fk));
}

double Log(double x) {
  double special;
  if (LogSpecial(x, &special)) {
    return special;
  }
  int64_t k;
  const double f = Decompose(x, &k) - 1.0;
  const Log1pParts p = Log1pReduced(f);
  const double dk = static_cast<double>(k);
  return dk * kLn2Hi - ((p.hfsq - (p.s_term + dk * kLn2Lo)) - f);
}

double Log10(double x) {
  double special;
  if (LogSpecial(x, &special)) {
    return special;
  }
  int64_t k;
  const double f = Decompose(x, &k) - 1.0;
  const Log1pParts p = Log1pReduced(f);
  const double log1p_f = f - (p.hfsq - p.s_term);
  const double dk = static_cast<double>(k);
  // k * log10(2) carries 40 exact bits in its head, so at x = 10^n the
  // small remainder's rounding cannot reach the integer result's last bit.
  return dk * kLog10_2Hi + (dk * kLog10_2Lo + log1p_f * kInvLn10);
}

double Pow(double x, double y) {
  if (y == 0 || x == 1) {
    return 1.0;
  }
  if (std::isnan(x) || std::isnan(y)) {
    return x + y;
  }
  const double ay = std::fabs(y);
  // Parity of an integral y (meaningful only when y is an integer).
  const bool y_integer = ay >= 0x1p53 || std::floor(ay) == ay;
  const bool y_odd = y_integer && ay < 0x1p53 && std::fmod(ay, 2.0) == 1.0;
  double sign = 1.0;
  if (std::signbit(x)) {
    if (x != 0 && x > -kInf && !y_integer) {
      return kNaN;  // Negative base, fractional power.
    }
    if (y_odd) {
      sign = -1.0;
    }
  }
  const double ax = std::fabs(x);
  if (ay == kInf) {
    if (ax == 1.0) {
      return 1.0;
    }
    return (ax > 1.0) == (y > 0) ? kInf : 0.0;
  }
  if (ax == 0 || ax == kInf) {
    const bool big = (ax == kInf) == (y > 0);
    return sign * (big ? kInf : 0.0);
  }
  const Pair l = LogPair(ax);
  const double ph = y * l.hi;
  if (!(ph < 709.79)) {
    return sign * kInf;
  }
  if (ph < -745.2) {
    return sign * 0.0;
  }
  const Pair p = TwoProduct(y, l.hi);
  const double pl = p.lo + y * l.lo;
  const double fk = RoundToInt(ph * kLog2e);
  const double hi = ph - fk * kLn2Hi;
  const double lo = fk * kLn2Lo - pl;
  return sign * ExpCore(hi, lo, static_cast<int64_t>(fk));
}

double ScaledHypot(double a, double b, double c) {
  a = std::fabs(a);
  b = std::fabs(b);
  c = std::fabs(c);
  if (a == kInf || b == kInf || c == kInf) {
    return kInf;  // Even when another argument is NaN (C99 F.9.4.3).
  }
  if (std::isnan(a) || std::isnan(b) || std::isnan(c)) {
    return kNaN;
  }
  const double m = a > b ? (a > c ? a : c) : (b > c ? b : c);
  if (m == 0) {
    return 0.0;
  }
  // Scaling by a power of two is exact for every argument that can reach
  // the result's precision.
  int e;
  std::frexp(m, &e);
  a = std::ldexp(a, -e);
  b = std::ldexp(b, -e);
  c = std::ldexp(c, -e);
  return std::ldexp(std::sqrt(a * a + b * b + c * c), e);
}

}  // namespace androne::detmath
