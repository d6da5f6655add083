#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <limits>
#include <utility>

#include "src/mavlink/crc.h"
#include "src/mavlink/frame.h"
#include "src/mavlink/messages.h"
#include "src/mavlink/reliable.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"

namespace androne {
namespace {

TEST(MavCrcTest, KnownVector) {
  // CRC-16/MCRF4XX of "123456789" is 0x6F91.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(MavCrc(data, sizeof(data)), 0x6F91);
}

TEST(MavCrcTest, ExtraByteChangesCrc) {
  const uint8_t data[] = {1, 2, 3};
  EXPECT_NE(MavCrcAccumulate(50, MavCrc(data, 3)),
            MavCrcAccumulate(51, MavCrc(data, 3)));
}

TEST(FrameTest, EncodeHasCorrectLayout) {
  MavlinkFrame f;
  f.seq = 7;
  f.sysid = 1;
  f.compid = 1;
  f.msgid = MavMsgId::kCommandAck;
  f.payload = {0x90, 0x01, 0x00};  // command=400, result=0.
  auto bytes = EncodeFrame(f);
  ASSERT_EQ(bytes.size(), 6u + 3u + 2u);
  EXPECT_EQ(bytes[0], kMavlinkStx);
  EXPECT_EQ(bytes[1], 3);  // len.
  EXPECT_EQ(bytes[2], 7);  // seq.
  EXPECT_EQ(bytes[5], 77);  // msgid.
}

TEST(FrameTest, ParserRoundTrip) {
  MavlinkFrame f;
  f.msgid = MavMsgId::kHeartbeat;
  f.payload = {4, 0, 0, 0, 2, 3, 81, 4, 3};
  auto bytes = EncodeFrame(f);
  MavlinkParser parser;
  parser.Feed(bytes);
  auto frames = parser.TakeFrames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].msgid, MavMsgId::kHeartbeat);
  EXPECT_EQ(frames[0].payload, f.payload);
  EXPECT_EQ(parser.crc_errors(), 0u);
}

TEST(FrameTest, ParserHandlesFragmentedInput) {
  MavlinkFrame f;
  f.msgid = MavMsgId::kCommandAck;
  f.payload = {0x10, 0x00, 0x00};
  auto bytes = EncodeFrame(f);
  MavlinkParser parser;
  for (uint8_t b : bytes) {
    parser.Feed(&b, 1);  // One byte at a time.
  }
  EXPECT_EQ(parser.TakeFrames().size(), 1u);
}

TEST(FrameTest, ParserRejectsCorruptedCrc) {
  MavlinkFrame f;
  f.msgid = MavMsgId::kCommandAck;
  f.payload = {0x10, 0x00, 0x00};
  auto bytes = EncodeFrame(f);
  bytes[7] ^= 0xFF;  // Corrupt payload.
  MavlinkParser parser;
  parser.Feed(bytes);
  EXPECT_TRUE(parser.TakeFrames().empty());
  EXPECT_EQ(parser.crc_errors(), 1u);
}

TEST(FrameTest, ParserResyncsAfterGarbage) {
  MavlinkFrame f;
  f.msgid = MavMsgId::kCommandAck;
  f.payload = {0x10, 0x00, 0x00};
  std::vector<uint8_t> stream = {0x12, 0x34, 0x56};  // Garbage.
  auto good = EncodeFrame(f);
  stream.insert(stream.end(), good.begin(), good.end());
  MavlinkParser parser;
  parser.Feed(stream);
  EXPECT_EQ(parser.TakeFrames().size(), 1u);
  EXPECT_EQ(parser.resync_bytes(), 3u);
}

TEST(FrameTest, BackToBackFrames) {
  MavlinkFrame f;
  f.msgid = MavMsgId::kCommandAck;
  f.payload = {0x10, 0x00, 0x00};
  auto one = EncodeFrame(f);
  std::vector<uint8_t> stream;
  for (int i = 0; i < 10; ++i) {
    stream.insert(stream.end(), one.begin(), one.end());
  }
  MavlinkParser parser;
  parser.Feed(stream);
  EXPECT_EQ(parser.TakeFrames().size(), 10u);
}

// Typed message round-trips.

template <typename T>
T RoundTrip(const T& in) {
  MavlinkFrame frame = PackMessage(MavMessage{in});
  auto bytes = EncodeFrame(frame);
  MavlinkParser parser;
  parser.Feed(bytes);
  auto frames = parser.TakeFrames();
  EXPECT_EQ(frames.size(), 1u);
  auto msg = UnpackMessage(frames[0]);
  EXPECT_TRUE(msg.ok()) << msg.status();
  return std::get<T>(*msg);
}

TEST(MessagesTest, HeartbeatRoundTrip) {
  Heartbeat hb;
  hb.custom_mode = static_cast<uint32_t>(CopterMode::kGuided);
  hb.base_mode = kMavModeFlagSafetyArmed | kMavModeFlagCustomModeEnabled;
  hb.system_status = static_cast<uint8_t>(MavState::kActive);
  Heartbeat out = RoundTrip(hb);
  EXPECT_EQ(out.custom_mode, hb.custom_mode);
  EXPECT_EQ(out.base_mode, hb.base_mode);
  EXPECT_EQ(out.system_status, hb.system_status);
}

TEST(MessagesTest, CommandLongRoundTrip) {
  CommandLong cmd;
  cmd.command = static_cast<uint16_t>(MavCmd::kNavTakeoff);
  cmd.param7 = 15.0f;
  CommandLong out = RoundTrip(cmd);
  EXPECT_EQ(out.command, static_cast<uint16_t>(MavCmd::kNavTakeoff));
  EXPECT_FLOAT_EQ(out.param7, 15.0f);
}

TEST(MessagesTest, GlobalPositionIntRoundTrip) {
  GlobalPositionInt gpi;
  gpi.lat = 436084298;
  gpi.lon = -858110359;
  gpi.relative_alt = 15000;
  gpi.vx = -120;
  gpi.hdg = 27000;
  GlobalPositionInt out = RoundTrip(gpi);
  EXPECT_EQ(out.lat, gpi.lat);
  EXPECT_EQ(out.lon, gpi.lon);
  EXPECT_EQ(out.relative_alt, 15000);
  EXPECT_EQ(out.vx, -120);
  EXPECT_EQ(out.hdg, 27000);
}

TEST(MessagesTest, SetPositionTargetRoundTrip) {
  SetPositionTargetGlobalInt sp;
  sp.lat_int = 436084298;
  sp.lon_int = -858110359;
  sp.alt = 15.0f;
  sp.vx = 2.5f;
  sp.type_mask = 0x0FF8;
  SetPositionTargetGlobalInt out = RoundTrip(sp);
  EXPECT_EQ(out.lat_int, sp.lat_int);
  EXPECT_FLOAT_EQ(out.alt, 15.0f);
  EXPECT_EQ(out.type_mask, 0x0FF8);
}

TEST(MessagesTest, StatusTextRoundTripAndTruncation) {
  StatusText st;
  st.severity = static_cast<uint8_t>(MavSeverity::kWarning);
  st.text = "geofence breached: guiding back inside";
  StatusText out = RoundTrip(st);
  EXPECT_EQ(out.text, st.text);

  st.text = std::string(80, 'x');  // Longer than the 50-char field.
  out = RoundTrip(st);
  EXPECT_EQ(out.text, std::string(50, 'x'));
}

TEST(MessagesTest, ParamSetRoundTrip) {
  ParamSet ps;
  ps.param_id = "FENCE_ENABLE";
  ps.param_value = 1.0f;
  ParamSet out = RoundTrip(ps);
  EXPECT_EQ(out.param_id, "FENCE_ENABLE");
  EXPECT_FLOAT_EQ(out.param_value, 1.0f);
}

TEST(MessagesTest, AttitudeRoundTrip) {
  Attitude att;
  att.roll = 0.05f;
  att.pitch = -0.02f;
  att.yaw = 1.57f;
  att.yawspeed = 0.1f;
  Attitude out = RoundTrip(att);
  EXPECT_FLOAT_EQ(out.roll, 0.05f);
  EXPECT_FLOAT_EQ(out.yaw, 1.57f);
}

TEST(MessagesTest, RcOverrideRoundTrip) {
  RcChannelsOverride rc;
  rc.chan[0] = 1500;
  rc.chan[2] = 1700;
  RcChannelsOverride out = RoundTrip(rc);
  EXPECT_EQ(out.chan[0], 1500);
  EXPECT_EQ(out.chan[2], 1700);
  EXPECT_EQ(out.chan[7], 0);
}

TEST(MessagesTest, SysStatusRoundTrip) {
  SysStatus ss;
  ss.voltage_battery = 11800;
  ss.current_battery = 1520;
  ss.battery_remaining = 76;
  ss.load = 430;
  SysStatus out = RoundTrip(ss);
  EXPECT_EQ(out.voltage_battery, 11800);
  EXPECT_EQ(out.current_battery, 1520);
  EXPECT_EQ(out.battery_remaining, 76);
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// One instance of each message with every field off its default, encoded
// with fixed seq/sysid/compid. The recorded bytes pin each message's wire
// order and widths, and its CRC_EXTRA through the checksum.
TEST(MessagesTest, EveryMessageEncodesToItsRecordedBytes) {
  Heartbeat hb;
  hb.custom_mode = 6;
  hb.type = 13;
  hb.autopilot = 12;
  hb.base_mode = 0x81;
  hb.system_status = 4;
  hb.mavlink_version = 2;

  SysStatus ss;
  ss.sensors_present = 0x2F;
  ss.sensors_enabled = 0x2B;
  ss.sensors_health = 0x0F;
  ss.load = 430;
  ss.voltage_battery = 11800;
  ss.current_battery = -1520;
  ss.drop_rate_comm = 17;
  ss.errors_comm = 3;
  ss.errors_count1 = 1;
  ss.errors_count2 = 2;
  ss.errors_count3 = 5;
  ss.errors_count4 = 8;
  ss.battery_remaining = 76;

  SetMode sm;
  sm.custom_mode = 4;
  sm.target_system = 2;
  sm.base_mode = 0x81;

  ParamSet ps;
  ps.param_value = 2.5f;
  ps.target_system = 3;
  ps.target_component = 4;
  ps.param_id = "WPNAV_SPEED";
  ps.param_type = 6;

  ParamValue pv;
  pv.param_value = -0.75f;
  pv.param_count = 310;
  pv.param_index = 42;
  pv.param_id = "FENCE_RADIUS_MAX";  // Exactly 16 chars: no terminator.
  pv.param_type = 6;

  Attitude att;
  att.time_boot_ms = 123456;
  att.roll = 0.05f;
  att.pitch = -0.02f;
  att.yaw = 1.57f;
  att.rollspeed = 0.001f;
  att.pitchspeed = -0.003f;
  att.yawspeed = 0.1f;

  GlobalPositionInt gpi;
  gpi.time_boot_ms = 654321;
  gpi.lat = 436084298;
  gpi.lon = -858110359;
  gpi.alt = 215000;
  gpi.relative_alt = 15000;
  gpi.vx = -120;
  gpi.vy = 45;
  gpi.vz = -7;
  gpi.hdg = 27000;

  RcChannelsOverride rc;
  for (int i = 0; i < 8; ++i) {
    rc.chan[i] = static_cast<uint16_t>(1100 + 100 * i);
  }
  rc.target_system = 2;
  rc.target_component = 3;

  CommandLong cmd;
  cmd.param1 = 1;
  cmd.param2 = -2.5f;
  cmd.param3 = 3.25f;
  cmd.param4 = 90;
  cmd.param5 = 43.6f;
  cmd.param6 = -85.8f;
  cmd.param7 = 15;
  cmd.command = static_cast<uint16_t>(MavCmd::kNavTakeoff);
  cmd.target_system = 2;
  cmd.target_component = 3;
  cmd.confirmation = 4;

  SetPositionTargetGlobalInt sp;
  sp.time_boot_ms = 999;
  sp.lat_int = 436076409;
  sp.lon_int = -858154457;
  sp.alt = 15;
  sp.vx = 1.5f;
  sp.vy = -2.5f;
  sp.vz = 0.5f;
  sp.afx = 0.1f;
  sp.afy = -0.2f;
  sp.afz = 0.3f;
  sp.yaw = 3.14f;
  sp.yaw_rate = -0.5f;
  sp.type_mask = 0x0FF8;
  sp.target_system = 2;
  sp.target_component = 3;
  sp.coordinate_frame = 5;

  StatusText st;
  st.severity = static_cast<uint8_t>(MavSeverity::kWarning);
  st.text = "Geofence breached";

  const std::pair<MavMessage, const char*> kGolden[] = {
      {hb, "fe0907ffbe00060000000d0c8104022491"},
      {ss, "fe1f07ffbe012f0000002b0000000f000000ae01182e10fa110003000100020005"
       "0008004cd2dd"},
      {sm, "fe0607ffbe0b040000000281e128"},
      {ps, "fe1707ffbe1700002040030457504e41565f5350454544000000000006bde2"},
      {pv, "fe1907ffbe16000040bf36012a0046454e43455f5241444955535f4d415806"
       "e41a"},
      {att, "fe1c07ffbe1e40e20100cdcc4c3d0ad7a3bcc3f5c83f6f12833aa69b44bbcdcccc"
       "3d16b2"},
      {gpi, "fe1c07ffbe21f1fb09004a1efe196946daccd8470300983a000088ff2d00f9ff78"
       "695828"},
      {rc, "fe1207ffbe464c04b00414057805dc054006a406080702033664"},
      {cmd, "fe2107ffbe4c0000803f000020c0000050400000b44266662e429a99abc2000070"
       "411600020304d03d"},
      {CommandAck{400, 2}, "fe0307ffbe4d9001026e37"},
      {sp, "fe3507ffbe56e703000079fffd19279ad9cc000070410000c03f000020c0000000"
       "3fcdcccc3dcdcc4cbe9a99993ec3f54840000000bff80f020305a3a5"},
      {st, "fe3307ffbefd0447656f66656e6365206272656163686564000000000000000000"
       "0000000000000000000000000000000000000000000000003d11"},
  };
  for (const auto& [message, hex] : kGolden) {
    MavlinkFrame frame = PackMessage(message);
    frame.seq = 7;
    frame.sysid = 255;
    frame.compid = 190;
    EXPECT_EQ(Hex(EncodeFrame(frame)), hex)
        << "message id " << static_cast<int>(MessageId(message));
  }
}

TEST(MessagesTest, UnpackRejectsShortPayload) {
  MavlinkFrame f;
  f.msgid = MavMsgId::kCommandLong;
  f.payload = {1, 2, 3};
  EXPECT_FALSE(UnpackMessage(f).ok());
}

TEST(MessagesTest, MessageIdMatchesPackedFrame) {
  EXPECT_EQ(MessageId(MavMessage{Heartbeat{}}), MavMsgId::kHeartbeat);
  EXPECT_EQ(MessageId(MavMessage{CommandLong{}}), MavMsgId::kCommandLong);
  EXPECT_EQ(PackMessage(MavMessage{SetMode{}}).msgid, MavMsgId::kSetMode);
}

// Property: flipping 1-3 bits of a frame never yields a valid frame. The
// CRC-16 detects every error of up to three bits in the bytes it covers. A
// flip in STX, len or msgid makes the parser check the wrong bytes or the
// wrong CRC_EXTRA, which only a 2^-16 collision would pass; none of these
// seeds hits one.
class CorruptionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionTest, CorruptionNeverForgesFrames) {
  Rng rng(GetParam());
  CommandLong cmd;
  cmd.command = static_cast<uint16_t>(MavCmd::kComponentArmDisarm);
  cmd.param1 = 1.0f;
  auto bytes = EncodeFrame(PackMessage(MavMessage{cmd}));
  // Flip 1-3 random bits.
  int flips = 1 + static_cast<int>(rng.NextU64Below(3));
  for (int i = 0; i < flips; ++i) {
    size_t pos = rng.NextU64Below(bytes.size());
    bytes[pos] ^= static_cast<uint8_t>(1u << rng.NextU64Below(8));
  }
  MavlinkParser parser;
  parser.Feed(bytes);
  EXPECT_TRUE(parser.TakeFrames().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionTest,
                         ::testing::Range<uint64_t>(1, 65));


// A resend repeats the payload bit for bit, so a NaN param (which never
// compares equal to itself as a float) must not make it look fresh.
TEST(CommandDeduperTest, ResendWithNanParamIsDuplicate) {
  SimClock clock;
  CommandDeduper dedup(&clock);
  CommandLong cmd;
  cmd.command = static_cast<uint16_t>(MavCmd::kDoChangeSpeed);
  cmd.param2 = std::numeric_limits<float>::quiet_NaN();
  const MavlinkFrame frame = PackMessage(MavMessage{cmd});
  EXPECT_FALSE(dedup.Filter(frame).duplicate);
  EXPECT_TRUE(dedup.Filter(frame).duplicate);
  EXPECT_EQ(dedup.duplicates_suppressed(), 1u);
}

// Seeded mutation test of the codec and the command channel: a tenant
// controls every byte it hands to MAVProxy. From one seed, 2048 streams:
// bit flips, truncations and splices of encoded frame streams; overwrites
// of len, and of msgid with known and unknown ids; and re-sealed payloads
// (mutated, then re-encoded with a valid CRC), whose lengths cycle through
// 0..255 so that every length reaches UnpackMessage.
class FrameMutationTest : public ::testing::Test {
 protected:
  // One default instance of each message.
  static std::vector<MavMessage> Prototypes() {
    return []<size_t... I>(std::index_sequence<I...>) {
      return std::vector<MavMessage>{MavMessage{std::in_place_index<I>}...};
    }(std::make_index_sequence<std::variant_size_v<MavMessage>>{});
  }

  uint8_t Byte() { return static_cast<uint8_t>(rng_.NextU64()); }
  size_t Below(size_t n) { return static_cast<size_t>(rng_.NextU64Below(n)); }

  // A frame of a random message, every payload byte random.
  MavlinkFrame RandomFrame() {
    MavlinkFrame frame = PackMessage(prototypes_[Below(prototypes_.size())]);
    for (uint8_t& b : frame.payload) {
      b = Byte();
    }
    frame.seq = Byte();
    frame.sysid = Byte();
    frame.compid = Byte();
    return frame;
  }

  std::vector<uint8_t> RandomStream() {
    std::vector<uint8_t> stream;
    for (size_t n = 1 + Below(4); n > 0; --n) {
      EncodeFrameInto(RandomFrame(), &stream);
    }
    return stream;
  }

  // A known id three times in four, else any id.
  MavMsgId RandomId() {
    if (Below(4) != 0) {
      return MessageId(prototypes_[Below(prototypes_.size())]);
    }
    return static_cast<MavMsgId>(Byte());
  }

  // A random message's payload resized to |length| (extended with random
  // bytes), one bit flipped, sealed under RandomId() with a valid CRC.
  std::vector<uint8_t> Resealed(size_t length) {
    MavlinkFrame frame = RandomFrame();
    frame.msgid = RandomId();
    const size_t packed = frame.payload.size();
    frame.payload.resize(length);
    for (size_t i = packed; i < length; ++i) {
      frame.payload[i] = Byte();
    }
    if (length > 0) {
      frame.payload[Below(length)] ^= static_cast<uint8_t>(1u << Below(8));
    }
    return EncodeFrame(frame);
  }

  std::vector<uint8_t> Mutated(int kind) {
    std::vector<uint8_t> stream = RandomStream();
    switch (kind) {
      case 0:  // Bit flips.
        for (size_t n = 1 + Below(8); n > 0; --n) {
          stream[Below(stream.size())] ^= static_cast<uint8_t>(1u << Below(8));
        }
        break;
      case 1:  // Truncation, then a whole frame.
        stream.resize(Below(stream.size()));
        EncodeFrameInto(RandomFrame(), &stream);
        break;
      case 2: {  // Splice: a prefix of one stream, a suffix of another.
        const std::vector<uint8_t> other = RandomStream();
        stream.resize(Below(stream.size() + 1));
        stream.insert(stream.end(), other.begin() + Below(other.size()),
                      other.end());
        break;
      }
      case 3:  // The first frame's len.
        stream[1] = Byte();
        break;
      default:  // The first frame's msgid.
        stream[5] = static_cast<uint8_t>(RandomId());
        break;
    }
    return stream;
  }

  // Checks every property on each frame the parser emits from |stream|.
  void Check(const std::vector<uint8_t>& stream) {
    MavlinkParser parser;
    parser.Feed(stream);
    for (const MavlinkFrame& frame : parser.TakeFrames()) {
      const std::vector<uint8_t> wire = EncodeFrame(frame);
      EXPECT_NE(std::search(stream.begin(), stream.end(), wire.begin(),
                            wire.end()),
                stream.end());
      lengths_.set(frame.payload.size());
      StatusOr<MavMessage> message = UnpackMessage(frame);
      if (!message.ok()) {
        sender_.HandleFrame(frame);
        continue;
      }
      ++decoded_;
      const MavlinkFrame packed = PackMessage(*message);
      EXPECT_EQ(packed.msgid, frame.msgid);
      StatusOr<MavMessage> again = UnpackMessage(packed);
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_EQ(PackMessage(*again).payload, packed.payload);
      if (std::holds_alternative<CommandLong>(*message)) {
        ++commands_;
        SimClock clock;
        CommandDeduper dedup(&clock);
        dedup.Filter(frame);
        EXPECT_TRUE(dedup.Filter(frame).duplicate);
      }
      if (const auto* ack = std::get_if<CommandAck>(&*message)) {
        // The ack resolves a command pending under its id.
        CommandLong pending;
        pending.command = ack->command;
        sender_.SendCommand(pending);
        const uint64_t acked = sender_.acked();
        sender_.HandleFrame(frame);
        EXPECT_EQ(sender_.acked(), acked + 1);
        EXPECT_EQ(sender_.pending(), 0u);
      } else {
        sender_.HandleFrame(frame);
      }
    }
  }

  Rng rng_{0x6d61766cULL};
  const std::vector<MavMessage> prototypes_ = Prototypes();
  SimClock sender_clock_;
  ReliableCommandSender sender_{&sender_clock_, 7};
  std::bitset<256> lengths_;
  int decoded_ = 0;
  int commands_ = 0;
};

TEST_F(FrameMutationTest, ParserCodecAndCommandChannelHoldUnderMutation) {
  for (int i = 0; i < 2048; ++i) {
    Check(i % 2 == 0 ? Mutated((i / 2) % 5) : Resealed((i / 2) % 256));
  }
  EXPECT_EQ(lengths_.count(), 256u);
  EXPECT_GT(decoded_, 0);
  EXPECT_GT(commands_, 0);
}

}  // namespace
}  // namespace androne
