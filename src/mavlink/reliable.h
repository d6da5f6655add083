// Reliable MAVLink command delivery over lossy links. COMMAND_LONG is the
// one MAVLink message with an application-level ack (COMMAND_ACK), and real
// GCS stacks retransmit it with the `confirmation` field counting resends.
// ReliableCommandSender implements the sender side: ack tracking, timeout,
// bounded exponential backoff with jitter, and a give-up threshold.
// CommandDeduper implements the receiver side: a retransmission that arrives
// after the original was already executed is suppressed and re-acked with
// the cached result, so retried commands execute exactly once.
#ifndef SRC_MAVLINK_RELIABLE_H_
#define SRC_MAVLINK_RELIABLE_H_

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <type_traits>

#include "src/mavlink/messages.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"

namespace androne {

// Snapshot visitor for the two command-channel payloads, from their wire
// field lists: floats travel as F64, 16-bit fields as U32 and bytes as U8.
template <class Ar, class M>
  requires std::is_same_v<M, CommandLong> || std::is_same_v<M, CommandAck>
void VisitValue(Ar& ar, M& message) {
  M::Fields(message, [&ar](auto&... fields) {
    auto visit = [&ar]<class T>(T& v) {
      if constexpr (std::is_same_v<T, float>) {
        ar.F64(v);
      } else if constexpr (sizeof(T) == 2) {
        ar.U32(v);
      } else {
        static_assert(sizeof(T) == 1);
        ar.U8(v);
      }
    };
    (visit(fields), ...);
  });
}

// Ack-tracked COMMAND_LONG sender. One command per MAV_CMD id may be in
// flight at a time (COMMAND_ACK only carries the command id); sending a
// command that is already pending replaces the pending one.
class ReliableCommandSender {
 public:
  using FrameSink = std::function<void(const MavlinkFrame&)>;
  // Invoked when a command resolves: |delivered| is true on ack (any result
  // code — delivery, not acceptance), false when the sender gives up.
  using CompletionCallback =
      std::function<void(const CommandLong&, bool delivered)>;

  using WireSink = std::function<void(const std::vector<uint8_t>&)>;

  ReliableCommandSender(SimClock* clock, uint64_t seed);

  void SetSendSink(FrameSink sink) { sink_ = std::move(sink); }
  // Wire-level alternative to SetSendSink for senders that feed a byte
  // channel directly: frames (first sends and every retransmission) are
  // encoded into one reused scratch buffer, so the retry loop does not
  // allocate per attempt. Both sinks may be set; each receives every
  // transmission in its own form.
  void SetWireSink(WireSink sink) { wire_sink_ = std::move(sink); }
  void SetCompletionCallback(CompletionCallback cb) {
    completion_ = std::move(cb);
  }
  // Source system id stamped on outgoing frames (255 = GCS convention).
  void set_sysid(uint8_t sysid) { sysid_ = sysid; }

  // Sends |cmd| and tracks it until acked or given up. Retransmissions keep
  // the frame's sequence number (so receivers can deduplicate) and bump the
  // MAVLink `confirmation` field, as the protocol specifies.
  void SendCommand(const CommandLong& cmd);

  // Feed frames arriving from the drone; consumes COMMAND_ACKs (other
  // messages are ignored, so the whole downlink can be routed here).
  void HandleFrame(const MavlinkFrame& frame);

  // --- Introspection ---
  size_t pending() const { return pending_.size(); }
  Rng& checkpoint_rng() { return rng_; }
  uint64_t commands_sent() const { return commands_sent_; }
  uint64_t retransmissions() const { return retransmissions_; }
  uint64_t acked() const { return acked_; }
  uint64_t gave_up() const { return gave_up_; }

  // --- Checkpoint/restore (DESIGN.md §13) ---
  // Pending commands persist with their armed retry deadlines;
  // sinks/callbacks are re-wired by the caller. Instantiated for
  // SaveArchive and LoadArchive in reliable.cc.
  template <class Ar>
  Status Visit(Ar& ar);

 private:
  struct Pending {
    CommandLong cmd;
    uint8_t seq = 0;
    int attempts = 0;     // Transmissions so far.
    EventId timer = 0;    // 0 = no retry scheduled.
  };

  void Transmit(uint16_t command_id);
  // Schedules |command_id|'s ack timeout at |when|.
  EventId ArmRetry(uint16_t command_id, SimTime when);
  void OnTimeout(uint16_t command_id);
  void Resolve(uint16_t command_id, bool delivered);

  SimClock* clock_;
  Rng rng_;
  FrameSink sink_;
  WireSink wire_sink_;
  std::vector<uint8_t> wire_scratch_;
  CompletionCallback completion_;
  uint8_t sysid_ = 255;
  uint8_t tx_seq_ = 0;
  std::map<uint16_t, Pending> pending_;
  uint64_t commands_sent_ = 0;
  uint64_t retransmissions_ = 0;
  uint64_t acked_ = 0;
  uint64_t gave_up_ = 0;
};

// Receiver-side duplicate suppression for COMMAND_LONG. A retransmission is
// a frame whose (sysid, compid, seq) and payload — ignoring the
// `confirmation` counter — match a recently handled command. The deduper
// remembers the ack each command produced so duplicates can be re-acked
// without re-executing (the original ack may have been lost downlink).
class CommandDeduper {
 public:
  struct Verdict {
    bool duplicate = false;
    std::optional<CommandAck> cached_ack;  // Set if the original was acked.
  };

  explicit CommandDeduper(SimClock* clock, SimDuration window = Seconds(2),
                          size_t capacity = 32)
      : clock_(clock), window_(window), capacity_(capacity) {}

  // Classifies an inbound COMMAND_LONG frame; fresh commands are recorded.
  // Frames that are not COMMAND_LONG (or fail to decode) are never
  // duplicates.
  Verdict Filter(const MavlinkFrame& frame);

  // Associates an outbound ack with the most recent matching fresh command.
  void RecordAck(const CommandAck& ack);

  uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }

  // Checkpoint/restore: the dedup window is digest-relevant state (a
  // duplicate arriving after restore must still be suppressed).
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Section("DEDU");
    ar.Seq(entries_, [&](Entry& e) {
      ar.U8(e.sysid);
      ar.U8(e.compid);
      ar.U8(e.seq);
      VisitValue(ar, e.cmd);
      ar.I64(e.time);
      ar.Optional(e.ack, [&](CommandAck& ack) { VisitValue(ar, ack); });
    });
    ar.U64(duplicates_suppressed_);
    return ar.status();
  }

 private:
  struct Entry {
    uint8_t sysid, compid, seq;
    CommandLong cmd;  // confirmation zeroed.
    SimTime time;
    std::optional<CommandAck> ack;
  };

  void Prune();

  SimClock* clock_;
  SimDuration window_;
  size_t capacity_;
  std::deque<Entry> entries_;
  uint64_t duplicates_suppressed_ = 0;
};

}  // namespace androne

#endif  // SRC_MAVLINK_RELIABLE_H_
