#include "src/net/channel.h"

#include <string>
#include <utility>

#include "src/obs/trace.h"
#include "src/snapshot/archive.h"

namespace androne {

NetworkChannel::NetworkChannel(SimClock* clock, const LinkModel* link,
                               uint64_t seed)
    : clock_(clock), link_(link), rng_(seed) {}

void NetworkChannel::Send(std::vector<uint8_t> payload) {
  ++sent_;
  if (link_->SampleLoss(rng_)) {
    ++lost_;
    if (trace_ != nullptr && trace_->enabled(kTraceNet)) {
      trace_->Instant(kTraceNet, lost_name_);
    }
    return;
  }
  SimDuration latency = link_->SampleLatency(rng_);
  // In-flight datagrams live in a registry keyed by a persistent monotone id
  // (not the transient EventId) so checkpoints can enumerate and re-arm them.
  const uint64_t id = next_inflight_id_++;
  Inflight& entry = inflight_[id];
  entry.payload = std::move(payload);
  entry.latency = latency;
  entry.event = ArmDelivery(id, clock_->now() + latency);
}

EventId NetworkChannel::ArmDelivery(uint64_t id, SimTime when) {
  return clock_->ScheduleAt(when, [this, id] { Deliver(id); });
}

void NetworkChannel::Deliver(uint64_t id) {
  auto it = inflight_.find(id);
  if (it == inflight_.end()) {
    return;
  }
  std::vector<uint8_t> payload = std::move(it->second.payload);
  SimDuration latency = it->second.latency;
  inflight_.erase(it);
  if (!receiver_) {
    // No receiver (never set or torn down): count the datagram as dropped
    // rather than invoking an empty std::function.
    ++dropped_no_receiver_;
    if (trace_ != nullptr && trace_->enabled(kTraceNet)) {
      trace_->Instant(kTraceNet, drop_name_);
    }
    return;
  }
  ++delivered_;
  latency_us_.Record(ToMicros(latency));
  if (trace_ != nullptr && trace_->enabled(kTraceNet)) {
    trace_->Instant(kTraceNet, delivered_name_, -1, ToMicros(latency));
  }
  receiver_(payload);
}

template <class Ar>
Status NetworkChannel::Visit(Ar& ar, const std::string& prefix) {
  ar.Section("CHAN");
  rng_.Visit(ar);
  ar.U64(next_inflight_id_);
  ar.U64(sent_);
  ar.U64(delivered_);
  ar.U64(lost_);
  ar.U64(dropped_no_receiver_);
  latency_us_.Visit(ar);
  ar.Map(inflight_, [&](auto& id, Inflight& entry) {
    ar.U64(id);
    ar.I64(entry.latency);
    ar.Bytes(entry.payload);
    // The load visits a temporary entry, so the re-arm finds the stored
    // one by id.
    ar.Timer(prefix + "." + std::to_string(id), entry.event,
             [this, id](SimTime when) {
               inflight_[id].event = ArmDelivery(id, when);
             });
  });
  return ar.status();
}

template Status NetworkChannel::Visit(SaveArchive&, const std::string&);
template Status NetworkChannel::Visit(LoadArchive&, const std::string&);

void NetworkChannel::SetTrace(TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    delivered_name_ = trace_->InternName("net.delivered");
    lost_name_ = trace_->InternName("net.lost");
    drop_name_ = trace_->InternName("net.drop_no_receiver");
  }
}

VpnTunnel::VpnTunnel(NetworkChannel* underlying, uint32_t tunnel_id)
    : underlying_(underlying), tunnel_id_(tunnel_id) {}

void VpnTunnel::SetReceiver(Receiver receiver) {
  receiver_ = std::move(receiver);
  underlying_->SetReceiver([this](const std::vector<uint8_t>& datagram) {
    if (datagram.size() < 4) {
      ++rejected_;
      if (trace_ != nullptr && trace_->enabled(kTraceNet)) {
        trace_->Instant(kTraceNet, reject_name_);
      }
      return;
    }
    uint32_t id = static_cast<uint32_t>(datagram[0]) |
                  (static_cast<uint32_t>(datagram[1]) << 8) |
                  (static_cast<uint32_t>(datagram[2]) << 16) |
                  (static_cast<uint32_t>(datagram[3]) << 24);
    if (id != tunnel_id_) {
      ++rejected_;  // Authenticated-decapsulation failure.
      if (trace_ != nullptr && trace_->enabled(kTraceNet)) {
        trace_->Instant(kTraceNet, reject_name_);
      }
      return;
    }
    if (receiver_) {
      // Decapsulate into a reused scratch buffer: steady-state tunnel
      // delivery allocates nothing once the buffer has grown to the MTU.
      decap_scratch_.assign(datagram.begin() + 4, datagram.end());
      if (trace_ != nullptr && trace_->enabled(kTraceNet)) {
        trace_->Instant(kTraceNet, decap_name_, -1,
                        static_cast<int64_t>(decap_scratch_.size()));
      }
      receiver_(decap_scratch_);
    }
  });
}

void VpnTunnel::Send(const std::vector<uint8_t>& payload) {
  // Encapsulate into a fresh datagram the channel takes ownership of.
  std::vector<uint8_t> datagram;
  datagram.reserve(payload.size() + 4);
  datagram.push_back(static_cast<uint8_t>(tunnel_id_ & 0xFF));
  datagram.push_back(static_cast<uint8_t>((tunnel_id_ >> 8) & 0xFF));
  datagram.push_back(static_cast<uint8_t>((tunnel_id_ >> 16) & 0xFF));
  datagram.push_back(static_cast<uint8_t>((tunnel_id_ >> 24) & 0xFF));
  datagram.insert(datagram.end(), payload.begin(), payload.end());
  if (trace_ != nullptr && trace_->enabled(kTraceNet)) {
    trace_->Instant(kTraceNet, encap_name_, -1,
                    static_cast<int64_t>(datagram.size()));
  }
  underlying_->Send(std::move(datagram));
}

void VpnTunnel::SetTrace(TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    encap_name_ = trace_->InternName("vpn.encap");
    decap_name_ = trace_->InternName("vpn.decap");
    reject_name_ = trace_->InternName("vpn.reject");
  }
}

}  // namespace androne
