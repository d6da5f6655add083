// Simulated-time vocabulary. All AnDrone subsystems run on one deterministic
// simulated timeline measured in integer nanoseconds since simulation start.
#ifndef SRC_UTIL_TIME_H_
#define SRC_UTIL_TIME_H_

// Same seed, same bytes (DESIGN.md §11) needs IEEE arithmetic: fast-math
// lets the compiler reassociate and drop NaN/inf handling, which moves
// digests silently.
#ifdef __FAST_MATH__
#error "AnDrone must not be built with -ffast-math: it moves digests"
#endif

#include <cstdint>

namespace androne {

// A point on the simulated timeline, in nanoseconds since simulation start.
using SimTime = int64_t;
// A span of simulated time, in nanoseconds.
using SimDuration = int64_t;

constexpr SimDuration Nanos(int64_t n) { return n; }
constexpr SimDuration Micros(int64_t us) { return us * 1000; }
constexpr SimDuration Millis(int64_t ms) { return ms * 1000 * 1000; }
constexpr SimDuration Seconds(int64_t s) { return s * 1000 * 1000 * 1000; }

// Fractional-second construction, e.g. SecondsF(0.0025) for a 400 Hz period.
constexpr SimDuration SecondsF(double s) {
  return static_cast<SimDuration>(s * 1e9);
}

constexpr double ToSecondsF(SimDuration d) { return static_cast<double>(d) / 1e9; }
constexpr int64_t ToMicros(SimDuration d) { return d / 1000; }
constexpr int64_t ToMillis(SimDuration d) { return d / (1000 * 1000); }

}  // namespace androne

#endif  // SRC_UTIL_TIME_H_
