#include "src/util/rng.h"

#include <bit>
#include <cmath>

#include "src/util/detmath.h"

namespace androne {

uint64_t SplitMix64(uint64_t x) {
  uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  for (auto& s : state_) {
    s = SplitMix64(seed);
    seed += 0x9e3779b97f4a7c15ULL;
  }
}

uint64_t Rng::NextU64Below(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::GaussianOutsideRectangle(uint64_t strip, double u, double x) {
  for (;;) {
    if (strip == 0) {
      // Beyond R: Marsaglia's exponential tail method.
      double tx;
      double ty;
      do {
        tx = -detmath::Log(OpenUnitInterval()) / ziggurat::kZigR;
        ty = -detmath::Log(OpenUnitInterval());
      } while (2.0 * ty < tx * tx);
      return u < 0 ? -(ziggurat::kZigR + tx) : ziggurat::kZigR + tx;
    }
    // The wedge between the rectangle and the density.
    const double f_lo = ziggurat::kZigF[strip + 1];
    const double f_hi = ziggurat::kZigF[strip];
    if (f_lo + (f_hi - f_lo) * NextDouble() < detmath::Exp(-0.5 * x * x)) {
      return x;
    }
    const uint64_t bits = NextU64();
    strip = bits & 0xff;
    u = 2.0 * std::bit_cast<double>((bits >> 12) | 0x3ff0000000000000ULL) -
        3.0;
    x = u * ziggurat::kZigX[strip];
    if (std::fabs(x) < ziggurat::kZigX[strip + 1]) {
      return x;
    }
  }
}

double Rng::Exponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * detmath::Log(u);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace androne
