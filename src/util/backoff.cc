#include "src/util/backoff.h"

#include <algorithm>

#include "src/util/detmath.h"

namespace androne {

SimDuration BackoffPolicy::DelayFor(int attempt, Rng& rng) const {
  double delay = static_cast<double>(base) *
                 detmath::Pow(multiplier, std::max(0, attempt));
  delay = std::min(delay, static_cast<double>(max));
  if (jitter_fraction > 0) {
    delay *= rng.Uniform(1.0 - jitter_fraction, 1.0 + jitter_fraction);
  }
  return std::max<SimDuration>(Micros(1), static_cast<SimDuration>(delay));
}

}  // namespace androne
