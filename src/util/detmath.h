// Deterministic elementary functions (DESIGN.md §11). Every transcendental
// on a digested path (physics, sensors, estimation, control, the cloud
// planner, histograms, the normal sampler) goes through here instead of
// libm, whose results differ between library versions and targets
// (Monniaux, TOPLAS 2008). Each function is built only from + - * /, sqrt
// and exact operations (fabs, remainder, frexp/ldexp, bit casts), which
// IEEE 754 rounds the same way everywhere; with -ffp-contract=off
// (src/CMakeLists.txt) the same source therefore gives the same bits on
// every host.
//
// Accuracy against mpmath and a long-double reference (tests/detmath_test):
//   Sin, Cos, SinCos, Asin, Exp, Log   <= 1 ulp (Sin/Cos for |x| < 2^20 pi/2;
//                                      finite and deterministic beyond)
//   Atan2, Log10, Pow, Hypot           <= 2 ulp (Pow while |y log x| <= 709)
// Log10 is exact at powers of ten, and Pow is exact when the result is a
// representable power such as 2^k or 10^k.
// The coefficients and split constants are derived by
// scripts/gen_detmath_tables.py into detmath_coeffs.inc.
#ifndef SRC_UTIL_DETMATH_H_
#define SRC_UTIL_DETMATH_H_

#include <cmath>

namespace androne::detmath {

void SinCos(double x, double* sin_x, double* cos_x);
double Sin(double x);
double Cos(double x);
double Asin(double x);
double Atan2(double y, double x);
double Exp(double x);
double Log(double x);
double Log10(double x);
double Pow(double x, double y);

// sqrt of the sum of squares, with the inputs scaled by a power of two when
// a square would overflow or underflow (and C99's inf/NaN rules).
double ScaledHypot(double a, double b, double c);

// The plain sqrt(a*a + b*b) whenever no square can overflow or underflow
// into the result, which is every call on the simulated paths.
inline double Hypot(double a, double b) {
  const double s = a * a + b * b;
  if (s >= 0x1p-968 && s < 0x1p1000) {
    return std::sqrt(s);
  }
  return ScaledHypot(a, b, 0.0);
}

inline double Hypot(double a, double b, double c) {
  const double s = a * a + b * b + c * c;
  if (s >= 0x1p-968 && s < 0x1p1000) {
    return std::sqrt(s);
  }
  return ScaledHypot(a, b, c);
}

}  // namespace androne::detmath

#endif  // SRC_UTIL_DETMATH_H_
