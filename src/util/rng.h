// Deterministic random number generation for the simulation substrates.
// Every stochastic model (network jitter, scheduler noise, sensor noise)
// draws from an explicitly seeded Rng so experiments replay bit-identically.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

// Refused for the reason given in src/util/time.h.
#ifdef __FAST_MATH__
#error "AnDrone must not be built with -ffast-math: it moves digests"
#endif

#include <bit>
#include <cmath>
#include <cstdint>

namespace androne {

namespace ziggurat {
#include "src/util/ziggurat_tables.inc"
}  // namespace ziggurat

// One round of SplitMix64: a bijective 64-bit finalizer. Use it to derive
// statistically independent seeds from related ones (e.g. per-direction
// streams of a duplex channel) — small additive tweaks like `seed + k` keep
// the streams correlated through the seeder.
uint64_t SplitMix64(uint64_t x);

// xoshiro256++ with a splitmix64 seeder: fast, high quality, reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound == 0 returns 0.
  uint64_t NextU64Below(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Standard normal by the ziggurat (Marsaglia & Tsang, 2000). One draw
  // picks a strip from its low 8 bits and a signed uniform from its top
  // 52; about 98.8% of draws land inside their strip's rectangle and
  // return here. The rest test the wedge or sample the tail out of line.
  double NextGaussian() {
    const uint64_t bits = NextU64();
    const uint64_t strip = bits & 0xff;
    const double u =
        2.0 * std::bit_cast<double>((bits >> 12) | 0x3ff0000000000000ULL) -
        3.0;  // [-1, 1)
    const double x = u * ziggurat::kZigX[strip];
    if (std::fabs(x) < ziggurat::kZigX[strip + 1]) {
      return x;
    }
    return GaussianOutsideRectangle(strip, u, x);
  }

  // Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  // Exponential with the given mean (mean = 1/lambda).
  double Exponential(double mean);

  // Returns true with probability p.
  bool Bernoulli(double p);

  // Fork a derived, independent stream (used to give each subsystem its own
  // stream without coupling draw order across subsystems).
  Rng Fork();

  // Checkpoint support (DESIGN.md §13): the xoshiro words are the whole
  // generator state (the ziggurat keeps no spare draw between calls).
  template <class Ar>
  void Visit(Ar& ar) {
    for (uint64_t& word : state_) {
      ar.U64(word);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // The slow end of NextGaussian: the wedge test for a draw outside its
  // strip's rectangle, the tail beyond R for the base strip, and redraws.
  double GaussianOutsideRectangle(uint64_t strip, double u, double x);

  // Uniform in the open interval (0, 1), for logarithms.
  double OpenUnitInterval() {
    return (static_cast<double>(NextU64() >> 11) + 0.5) * 0x1.0p-53;
  }

  uint64_t state_[4];
};

}  // namespace androne

#endif  // SRC_UTIL_RNG_H_
