// Deterministic random number generation for the simulation substrates.
// Every stochastic model (network jitter, scheduler noise, sensor noise)
// draws from an explicitly seeded Rng so experiments replay bit-identically.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

// Refused for the reason given in src/util/time.h.
#ifdef __FAST_MATH__
#error "AnDrone must not be built with -ffast-math: it moves digests"
#endif

#include <cstdint>

namespace androne {

// One round of SplitMix64: a bijective 64-bit finalizer. Use it to derive
// statistically independent seeds from related ones (e.g. per-direction
// streams of a duplex channel) — small additive tweaks like `seed + k` keep
// the streams correlated through the seeder.
uint64_t SplitMix64(uint64_t x);

// xoshiro256++ with a splitmix64 seeder: fast, high quality, reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  uint64_t NextU64();

  // Uniform in [0, bound). bound == 0 returns 0.
  uint64_t NextU64Below(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Standard normal via Marsaglia polar method.
  double NextGaussian();

  // Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  // Log-normal parameterized by the *underlying* normal's mu/sigma.
  double LogNormal(double mu, double sigma);

  // Exponential with the given mean (mean = 1/lambda).
  double Exponential(double mean);

  // Returns true with probability p.
  bool Bernoulli(double p);

  // Fork a derived, independent stream (used to give each subsystem its own
  // stream without coupling draw order across subsystems).
  Rng Fork();

  // Checkpoint support (DESIGN.md §13): the complete generator state — the
  // xoshiro words plus the Marsaglia spare-gaussian latch (without it a
  // restored stream would emit one extra/missing normal draw and diverge).
  template <class Ar>
  void Visit(Ar& ar) {
    for (uint64_t& word : state_) {
      ar.U64(word);
    }
    ar.Bool(has_spare_gaussian_);
    ar.F64(spare_gaussian_);
  }

 private:
  uint64_t state_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace androne

#endif  // SRC_UTIL_RNG_H_
