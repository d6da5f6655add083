// Simulated unidirectional datagram channel over a link model, plus the
// per-container VPN tunnel AnDrone wraps all remote access in (paper §4):
// flight-controller protocols were never designed for the open Internet, so
// every container's traffic is tunneled and encrypted.
#ifndef SRC_NET_CHANNEL_H_
#define SRC_NET_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/net/link_model.h"
#include "src/util/histogram.h"
#include "src/util/sim_clock.h"

namespace androne {

class TraceRecorder;

class NetworkChannel {
 public:
  using Receiver = std::function<void(const std::vector<uint8_t>&)>;

  NetworkChannel(SimClock* clock, const LinkModel* link, uint64_t seed);

  void SetReceiver(Receiver receiver) { receiver_ = std::move(receiver); }

  // Sends one datagram; it is delivered to the receiver after a sampled
  // latency, or silently dropped on sampled loss. The buffer moves into the
  // in-flight registry and from there to the receiver, which observes the
  // sender's bytes with no copies. The delivery closure captures only the
  // registry id, so a datagram still in flight when the channel dies is
  // freed with the channel.
  void Send(std::vector<uint8_t> payload);

  // Attaches the net trace category: deliveries record an instant
  // ("net.delivered", arg = one-way latency in us), sampled losses record
  // "net.lost", and receiver-less arrivals record "net.drop_no_receiver".
  // Pass nullptr to detach.
  void SetTrace(TraceRecorder* trace);

  uint64_t sent() const { return sent_; }
  uint64_t delivered() const { return delivered_; }
  uint64_t lost() const { return lost_; }
  // Datagrams that survived the link but arrived with no receiver attached
  // (receiver never set, or torn down mid-flight). Counted as drops instead
  // of invoking an empty std::function.
  uint64_t dropped_no_receiver() const { return dropped_no_receiver_; }
  // One-way latency of delivered datagrams, microseconds.
  const Histogram& latency_us() const { return latency_us_; }
  size_t inflight() const { return inflight_.size(); }

  // --- Checkpoint/restore (DESIGN.md §13) ---
  // In-flight datagrams persist with their payload bytes and armed delivery
  // deadlines, whose timer keys start with |prefix|; the receiver is
  // re-wired by the restoring world. Instantiated for SaveArchive and
  // LoadArchive in channel.cc.
  template <class Ar>
  Status Visit(Ar& ar, const std::string& prefix);

 private:
  // One scheduled-but-undelivered datagram, held in a registry (keyed by a
  // monotone id) so checkpoints can enumerate the in-flight set.
  struct Inflight {
    std::vector<uint8_t> payload;
    SimDuration latency = 0;
    EventId event = 0;
  };

  // Schedules datagram |id|'s delivery at |when|.
  EventId ArmDelivery(uint64_t id, SimTime when);
  void Deliver(uint64_t id);

  SimClock* clock_;
  const LinkModel* link_;
  Rng rng_;
  Receiver receiver_;
  std::map<uint64_t, Inflight> inflight_;
  uint64_t next_inflight_id_ = 0;
  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;
  uint64_t lost_ = 0;
  uint64_t dropped_no_receiver_ = 0;
  Histogram latency_us_{10, 8};
  TraceRecorder* trace_ = nullptr;
  uint32_t delivered_name_ = 0;
  uint32_t lost_name_ = 0;
  uint32_t drop_name_ = 0;
};

// A bidirectional pair of channels between two parties over one link model.
// The reverse direction's RNG stream is derived with a SplitMix64 mix so the
// two directions are statistically independent even for adjacent seeds.
struct DuplexChannel {
  DuplexChannel(SimClock* clock, const LinkModel* link, uint64_t seed)
      : DuplexChannel(clock, link, link, seed) {}

  // Separate per-direction link models, e.g. two FaultyLinkModel decorators
  // sharing one FaultPlan to script an asymmetric partition.
  DuplexChannel(SimClock* clock, const LinkModel* forward,
                const LinkModel* reverse, uint64_t seed)
      : a_to_b(clock, forward, seed),
        b_to_a(clock, reverse, SplitMix64(seed)) {}

  NetworkChannel a_to_b;
  NetworkChannel b_to_a;
};

// Per-container VPN tunnel: encapsulates payloads with an authenticated
// header and adds crypto/encap latency. Receivers reject datagrams whose
// tunnel id does not match (cross-tenant traffic cannot be injected).
class VpnTunnel {
 public:
  // |tunnel_id| is bound to the container the tunnel belongs to.
  VpnTunnel(NetworkChannel* underlying, uint32_t tunnel_id);

  using Receiver = std::function<void(const std::vector<uint8_t>&)>;
  void SetReceiver(Receiver receiver);

  void Send(const std::vector<uint8_t>& payload);

  uint64_t rejected_datagrams() const { return rejected_; }

  // Checkpoint/restore: only the rejection counter is dynamic state (the
  // scratch buffer is transient and the receiver is re-wired on restore).
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("VPN ");
    ar.U64(rejected_);
    return ar.status();
  }

  // Attaches the net trace category: encapsulations record an instant
  // ("vpn.encap", arg = encapsulated bytes), successful decapsulations
  // record "vpn.decap" (arg = payload bytes), and rejected datagrams
  // record "vpn.reject". Pass nullptr to detach.
  void SetTrace(TraceRecorder* trace);

 private:
  NetworkChannel* underlying_;
  uint32_t tunnel_id_;
  Receiver receiver_;
  std::vector<uint8_t> decap_scratch_;
  uint64_t rejected_ = 0;
  TraceRecorder* trace_ = nullptr;
  uint32_t encap_name_ = 0;
  uint32_t decap_name_ = 0;
  uint32_t reject_name_ = 0;
};

}  // namespace androne

#endif  // SRC_NET_CHANNEL_H_
