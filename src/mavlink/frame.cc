#include "src/mavlink/frame.h"

#include "src/mavlink/crc.h"
#include "src/mavlink/messages.h"

namespace androne {

const char* CopterModeName(CopterMode mode) {
  switch (mode) {
    case CopterMode::kStabilize:
      return "STABILIZE";
    case CopterMode::kAltHold:
      return "ALT_HOLD";
    case CopterMode::kAuto:
      return "AUTO";
    case CopterMode::kGuided:
      return "GUIDED";
    case CopterMode::kLoiter:
      return "LOITER";
    case CopterMode::kRtl:
      return "RTL";
    case CopterMode::kLand:
      return "LAND";
  }
  return "UNKNOWN";
}

namespace {

// The frame checksum: CRC-16/X.25 over len, seq, sysid, compid, msgid and
// the payload (not the STX), then the message's CRC_EXTRA.
uint16_t FrameCrc(const MavlinkFrame& frame) {
  const uint8_t header[] = {static_cast<uint8_t>(frame.payload.size()),
                            frame.seq, frame.sysid, frame.compid,
                            static_cast<uint8_t>(frame.msgid)};
  uint16_t crc = MavCrc(header, sizeof(header));
  crc = MavCrc(frame.payload.data(), frame.payload.size(), crc);
  return MavCrcAccumulate(MavCrcExtra(frame.msgid), crc);
}

}  // namespace

void EncodeFrameInto(const MavlinkFrame& frame, std::vector<uint8_t>* out) {
  out->reserve(out->size() + 8 + frame.payload.size());
  out->push_back(kMavlinkStx);
  out->push_back(static_cast<uint8_t>(frame.payload.size()));
  out->push_back(frame.seq);
  out->push_back(frame.sysid);
  out->push_back(frame.compid);
  out->push_back(static_cast<uint8_t>(frame.msgid));
  out->insert(out->end(), frame.payload.begin(), frame.payload.end());
  uint16_t crc = FrameCrc(frame);
  out->push_back(static_cast<uint8_t>(crc & 0xFF));
  out->push_back(static_cast<uint8_t>(crc >> 8));
}

std::vector<uint8_t> EncodeFrame(const MavlinkFrame& frame) {
  std::vector<uint8_t> out;
  EncodeFrameInto(frame, &out);
  return out;
}

void MavlinkParser::Feed(const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    uint8_t byte = data[i];
    switch (state_) {
      case State::kIdle:
        if (byte == kMavlinkStx) {
          state_ = State::kLen;
          current_ = MavlinkFrame{};
        } else {
          ++resync_bytes_;
        }
        break;
      case State::kLen:
        len_ = byte;
        current_.payload.clear();
        current_.payload.reserve(len_);
        state_ = State::kSeq;
        break;
      case State::kSeq:
        current_.seq = byte;
        state_ = State::kSysid;
        break;
      case State::kSysid:
        current_.sysid = byte;
        state_ = State::kCompid;
        break;
      case State::kCompid:
        current_.compid = byte;
        state_ = State::kMsgid;
        break;
      case State::kMsgid:
        current_.msgid = static_cast<MavMsgId>(byte);
        state_ = len_ == 0 ? State::kCrcLo : State::kPayload;
        break;
      case State::kPayload:
        current_.payload.push_back(byte);
        if (current_.payload.size() == len_) {
          state_ = State::kCrcLo;
        }
        break;
      case State::kCrcLo:
        crc_lo_ = byte;
        state_ = State::kCrcHi;
        break;
      case State::kCrcHi: {
        uint16_t received =
            static_cast<uint16_t>(crc_lo_ | (static_cast<uint16_t>(byte) << 8));
        if (FrameCrc(current_) == received) {
          ready_.push_back(std::move(current_));
        } else {
          ++crc_errors_;
        }
        state_ = State::kIdle;
        break;
      }
    }
  }
}

std::vector<MavlinkFrame> MavlinkParser::TakeFrames() {
  std::vector<MavlinkFrame> out;
  out.swap(ready_);
  return out;
}

}  // namespace androne
