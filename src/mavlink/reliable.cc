#include "src/mavlink/reliable.h"

#include <algorithm>

#include "src/snapshot/archive.h"
#include "src/util/backoff.h"

namespace androne {

namespace {
// Time to wait for COMMAND_ACK before the first retransmission: comfortably
// above one RTT of the target link (LTE: ~140 ms).
constexpr SimDuration kAckTimeout = Millis(400);
// Total transmissions (first send + retries) before giving up.
constexpr int kMaxAttempts = 10;
// Backoff between retransmissions (attempt 0 = delay after the first
// retransmission). Jitter decorrelates retry storms across senders.
constexpr BackoffPolicy kRetryBackoff{Millis(400), 2.0, Seconds(5), 0.25};
}  // namespace

ReliableCommandSender::ReliableCommandSender(SimClock* clock, uint64_t seed)
    : clock_(clock), rng_(seed) {}

void ReliableCommandSender::SendCommand(const CommandLong& cmd) {
  auto existing = pending_.find(cmd.command);
  if (existing != pending_.end()) {
    // COMMAND_ACK identifies commands only by id: a newer command with the
    // same id replaces the pending one.
    if (existing->second.timer != 0) {
      clock_->Cancel(existing->second.timer);
    }
    pending_.erase(existing);
  }
  Pending p;
  p.cmd = cmd;
  p.cmd.confirmation = 0;
  p.seq = tx_seq_++;
  pending_[cmd.command] = p;
  ++commands_sent_;
  Transmit(cmd.command);
}

void ReliableCommandSender::Transmit(uint16_t command_id) {
  auto it = pending_.find(command_id);
  if (it == pending_.end()) {
    return;
  }
  Pending& p = it->second;
  ++p.attempts;
  if (p.attempts > 1) {
    ++retransmissions_;
    // MAVLink semantics: confirmation counts retransmissions of this
    // command. The frame keeps its sequence number so receivers can
    // recognize the duplicate.
    p.cmd.confirmation =
        static_cast<uint8_t>(std::min(p.attempts - 1, 255));
  }
  MavlinkFrame frame = PackMessage(MavMessage{p.cmd});
  frame.seq = p.seq;
  frame.sysid = sysid_;
  if (sink_) {
    sink_(frame);
  }
  if (wire_sink_) {
    wire_scratch_.clear();
    EncodeFrameInto(frame, &wire_scratch_);
    wire_sink_(wire_scratch_);
  }
  // The sink may deliver synchronously and the ack may already have resolved
  // this command — re-find before scheduling the retry timer.
  it = pending_.find(command_id);
  if (it == pending_.end()) {
    return;
  }
  SimDuration delay =
      it->second.attempts == 1
          ? kAckTimeout
          : kRetryBackoff.DelayFor(it->second.attempts - 2, rng_);
  it->second.timer = ArmRetry(command_id, clock_->now() + delay);
}

EventId ReliableCommandSender::ArmRetry(uint16_t command_id, SimTime when) {
  return clock_->ScheduleAt(when,
                            [this, command_id] { OnTimeout(command_id); });
}

void ReliableCommandSender::OnTimeout(uint16_t command_id) {
  auto it = pending_.find(command_id);
  if (it == pending_.end()) {
    return;
  }
  it->second.timer = 0;
  if (it->second.attempts >= kMaxAttempts) {
    ++gave_up_;
    Resolve(command_id, /*delivered=*/false);
    return;
  }
  Transmit(command_id);
}

void ReliableCommandSender::Resolve(uint16_t command_id, bool delivered) {
  auto it = pending_.find(command_id);
  if (it == pending_.end()) {
    return;
  }
  if (it->second.timer != 0) {
    clock_->Cancel(it->second.timer);
  }
  CommandLong cmd = it->second.cmd;
  pending_.erase(it);
  if (completion_) {
    completion_(cmd, delivered);
  }
}

void ReliableCommandSender::HandleFrame(const MavlinkFrame& frame) {
  if (frame.msgid != MavMsgId::kCommandAck) {
    return;
  }
  auto message = UnpackMessage(frame);
  if (!message.ok()) {
    return;
  }
  const auto* ack = std::get_if<CommandAck>(&*message);
  if (ack == nullptr || pending_.find(ack->command) == pending_.end()) {
    return;
  }
  ++acked_;
  Resolve(ack->command, /*delivered=*/true);
}

template <class Ar>
Status ReliableCommandSender::Visit(Ar& ar) {
  ar.Section("RSND");
  rng_.Visit(ar);
  ar.U8(tx_seq_);
  ar.U64(commands_sent_);
  ar.U64(retransmissions_);
  ar.U64(acked_);
  ar.U64(gave_up_);
  ar.Map(pending_, [&](auto& command_id, Pending& p) {
    ar.U32(command_id);
    VisitValue(ar, p.cmd);
    ar.U8(p.seq);
    ar.I64(p.attempts);
    // The load visits a temporary entry, so the re-arm finds the stored
    // one by id.
    bool armed = ar.Timer("rel." + std::to_string(command_id), p.timer,
                          [this, command_id](SimTime when) {
                            pending_[command_id].timer =
                                ArmRetry(command_id, when);
                          });
    ar.Bool(armed);
  });
  return ar.status();
}

template Status ReliableCommandSender::Visit(SaveArchive&);
template Status ReliableCommandSender::Visit(LoadArchive&);

namespace {

// Equality ignoring the confirmation counter (both sides zero it).
bool SameCommand(const CommandLong& a, const CommandLong& b) {
  return a.command == b.command && a.target_system == b.target_system &&
         a.target_component == b.target_component && a.param1 == b.param1 &&
         a.param2 == b.param2 && a.param3 == b.param3 &&
         a.param4 == b.param4 && a.param5 == b.param5 &&
         a.param6 == b.param6 && a.param7 == b.param7;
}

}  // namespace

CommandDeduper::Verdict CommandDeduper::Filter(const MavlinkFrame& frame) {
  if (frame.msgid != MavMsgId::kCommandLong) {
    return Verdict{};
  }
  auto message = UnpackMessage(frame);
  if (!message.ok()) {
    return Verdict{};
  }
  const auto* cmd = std::get_if<CommandLong>(&*message);
  if (cmd == nullptr) {
    return Verdict{};
  }
  CommandLong normalized = *cmd;
  normalized.confirmation = 0;
  Prune();
  for (Entry& e : entries_) {
    if (e.sysid == frame.sysid && e.compid == frame.compid &&
        e.seq == frame.seq && SameCommand(e.cmd, normalized)) {
      ++duplicates_suppressed_;
      // Sliding window: a retransmission proves the sender is still
      // retrying, so keep remembering across growing backoff gaps.
      e.time = clock_->now();
      return Verdict{true, e.ack};
    }
  }
  Entry e;
  e.sysid = frame.sysid;
  e.compid = frame.compid;
  e.seq = frame.seq;
  e.cmd = normalized;
  e.time = clock_->now();
  entries_.push_back(std::move(e));
  if (entries_.size() > capacity_) {
    entries_.pop_front();
  }
  return Verdict{};
}

void CommandDeduper::RecordAck(const CommandAck& ack) {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->cmd.command == ack.command) {
      it->ack = ack;
      return;
    }
  }
}

void CommandDeduper::Prune() {
  SimTime cutoff = clock_->now() - window_;
  while (!entries_.empty() && entries_.front().time < cutoff) {
    entries_.pop_front();
  }
}

}  // namespace androne
