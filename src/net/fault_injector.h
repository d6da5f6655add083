// Deterministic, sim-clock-driven network fault injection. A FaultPlan is a
// scripted schedule of fault windows — total outages, burst loss, latency
// inflation, asymmetric partitions — and a FaultyLinkModel decorates any
// LinkModel with that plan, so the same chaos scenario replays bit-identically
// under a fixed seed. This is the substrate for the link chaos tests and
// campaigns: the paper's whole premise (§6.5) is that virtual drones stay
// safe over a lossy LTE link, which the seed models only on the happy path.
//
// The window machinery is the shared util/fault_plan FaultSchedule, the same
// substrate the sensor fault layer (src/hw/sensor_faults.h) builds on, so one
// chaos script can compose network and sensor fault windows on one time base.
#ifndef SRC_NET_FAULT_INJECTOR_H_
#define SRC_NET_FAULT_INJECTOR_H_

#include <string>

#include "src/net/link_model.h"
#include "src/util/fault_plan.h"
#include "src/util/sim_clock.h"

namespace androne {

// Which direction of a duplex link a fault window applies to. A plain
// NetworkChannel is always kForward; DuplexChannel's reverse channel is
// kReverse. kBoth windows hit either direction (symmetric fault).
enum class LinkDirection { kForward = 0, kReverse = 1, kBoth = kFaultScopeAll };

const char* LinkDirectionName(LinkDirection dir);

enum class FaultKind {
  kOutage,     // Every packet in the window is lost.
  kBurstLoss,  // Packets are lost with an elevated probability.
  kLatency,    // Sampled latency is scaled and/or inflated by a constant.
};

inline constexpr int kMaxFaultKind = static_cast<int>(FaultKind::kLatency);
inline constexpr int kMaxLinkDirection =
    static_cast<int>(LinkDirection::kReverse);

// A scripted fault schedule. Build it once before the scenario runs; the
// decorated links consult it on every send. Windows may overlap (all
// matching windows apply: loss probabilities are combined, latency effects
// compose). Window parameters map onto the generic spec as
// p0 = loss probability / latency multiplier, d0 = extra latency.
//
// Every builder validates the window (FaultSchedule::ValidateWindow plus
// kind-specific parameter ranges) and rejects malformed input with a
// descriptive Status instead of silently scheduling nonsense; on error the
// plan is unchanged.
class FaultPlan {
 public:
  // Total blackout of [start, start+duration) in |dir|.
  Status AddOutage(SimTime start, SimDuration duration,
                   LinkDirection dir = LinkDirection::kBoth);

  // Elevated random loss in the window; probability in [0, 1].
  Status AddBurstLoss(SimTime start, SimDuration duration,
                      double loss_probability,
                      LinkDirection dir = LinkDirection::kBoth);

  // Latency inflation: sampled latency * multiplier + extra (both >= 0).
  Status AddLatencyInflation(SimTime start, SimDuration duration,
                             double multiplier, SimDuration extra,
                             LinkDirection dir = LinkDirection::kBoth);

  // One-sided blackout — models an asymmetric partition where traffic flows
  // one way only (e.g. uplink delivered, acks lost).
  Status AddPartition(SimTime start, SimDuration duration, LinkDirection dir) {
    return AddOutage(start, duration, dir);
  }

  // Generic validated append — the manifest-loading path (fault windows
  // deserialized by util/fault_plan_io land here).
  Status AddWindow(const FaultWindowSpec& window);

  const FaultSchedule& schedule() const { return schedule_; }

  // True if any outage window covers (t, dir).
  bool InOutage(SimTime t, LinkDirection dir) const;

  // Probability that a packet sent at (t, dir) is dropped by burst-loss
  // windows (combined across overlapping windows; outages excluded).
  double BurstLossProbability(SimTime t, LinkDirection dir) const;

  // Applies every covering latency window to |latency|.
  SimDuration InflateLatency(SimTime t, LinkDirection dir,
                             SimDuration latency) const;

 private:
  FaultSchedule schedule_;
};

// Per-link fault counters, split by cause so tests and benches can attribute
// every lost packet.
struct FaultCounters {
  uint64_t outage_losses = 0;
  uint64_t burst_losses = 0;
  uint64_t inflated_samples = 0;
};

// Decorator: any LinkModel plus a FaultPlan. The plan and base model are
// borrowed and must outlive the decorator; several decorated links (e.g. the
// two directions of a duplex channel) may share one plan.
class FaultyLinkModel : public LinkModel {
 public:
  FaultyLinkModel(const LinkModel* base, const FaultPlan* plan,
                  const SimClock* clock,
                  LinkDirection direction = LinkDirection::kForward)
      : base_(base), plan_(plan), clock_(clock), direction_(direction) {}

  std::string name() const override {
    return base_->name() + "+faults(" + LinkDirectionName(direction_) + ")";
  }
  SimDuration SampleLatency(Rng& rng) const override;
  bool SampleLoss(Rng& rng) const override;

  const FaultCounters& counters() const { return counters_; }
  // Checkpoint/restore: the counters are the decorator's only dynamic state
  // (the plan and base model are config).
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.U64(counters_.outage_losses);
    ar.U64(counters_.burst_losses);
    ar.U64(counters_.inflated_samples);
    return ar.status();
  }

 private:
  const LinkModel* base_;
  const FaultPlan* plan_;
  const SimClock* clock_;
  LinkDirection direction_;
  // SampleLoss/SampleLatency are const across the LinkModel interface; the
  // counters are observability only.
  mutable FaultCounters counters_;
};

}  // namespace androne

#endif  // SRC_NET_FAULT_INJECTOR_H_
