// Flight log + the Attitude Estimate Divergence (AED) analyzer the paper
// uses (via DroneKit Log Analyzer, §6.2) to show AnDrone does not destabilize
// the drone: instability is flagged when the estimated attitude diverges
// from the true attitude by more than 5 degrees for longer than 0.5 s.
#ifndef SRC_FLIGHT_FLIGHT_LOG_H_
#define SRC_FLIGHT_FLIGHT_LOG_H_

#include <cstdint>
#include <vector>

#include "src/util/status.h"
#include "src/util/time.h"

namespace androne {

struct FlightLogEntry {
  SimTime time = 0;
  double est_roll_rad = 0, est_pitch_rad = 0, est_yaw_rad = 0;
  double true_roll_rad = 0, true_pitch_rad = 0, true_yaw_rad = 0;
  double altitude_m = 0;
  uint32_t mode = 0;
  bool armed = false;
};

class FlightLog {
 public:
  void Record(const FlightLogEntry& entry) { entries_.push_back(entry); }
  const std::vector<FlightLogEntry>& entries() const { return entries_; }
  void Clear() { entries_.clear(); }

  // Checkpoint/restore: the digest is an order-sensitive fold over every
  // entry, so the full log must travel with the world snapshot for the
  // recovery-equivalence guarantee to hold.
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("FLOG");
    ar.Seq(entries_, [&](FlightLogEntry& e) {
      ar.I64(e.time);
      ar.F64(e.est_roll_rad);
      ar.F64(e.est_pitch_rad);
      ar.F64(e.est_yaw_rad);
      ar.F64(e.true_roll_rad);
      ar.F64(e.true_pitch_rad);
      ar.F64(e.true_yaw_rad);
      ar.F64(e.altitude_m);
      ar.U32(e.mode);
      ar.Bool(e.armed);
    });
    return ar.status();
  }

 private:
  std::vector<FlightLogEntry> entries_;
};

struct AedResult {
  bool unstable = false;
  // Longest continuous span with divergence > threshold, on any axis.
  SimDuration worst_span = 0;
  double worst_divergence_deg = 0;
};

// The AED analyzer: divergence > |threshold_deg| sustained longer than
// |max_span| indicates instability.
AedResult AnalyzeAttitudeDivergence(const FlightLog& log,
                                    double threshold_deg = 5.0,
                                    SimDuration max_span = Millis(500));

// Order-sensitive FNV-1a digest over every logged field of every entry.
// Bit-identical flights digest equal; the fleet executor's determinism
// contract (same world seed => same digest, any thread count) checks this.
uint64_t FlightLogDigest(const FlightLog& log);

}  // namespace androne

#endif  // SRC_FLIGHT_FLIGHT_LOG_H_
