// Typed MAVLink common-dialect messages with v1 wire packing (fields in the
// official size-sorted wire order). Both ends of every link in AnDrone speak
// this implementation, and the CRC_EXTRA constants match the official
// definitions so the framing is faithful to real MAVLink.
//
// Each message states its wire facts once: kDef holds its id, CRC_EXTRA and
// name, and
//
//   template <class M, class F> static void Fields(M& m, F&& f);
//
// hands every field to |f| in wire order (M is the message, const when
// packing). PackMessage and UnpackMessage walk that list, MessageId and
// MavCrcExtra read kDef, and the snapshot codec of the command-channel
// messages (src/mavlink/reliable.h) walks the same list. A compile-time
// check in messages.cc rejects two messages with one id.
#ifndef SRC_MAVLINK_MESSAGES_H_
#define SRC_MAVLINK_MESSAGES_H_

#include <cstdint>
#include <string>
#include <variant>

#include "src/mavlink/frame.h"
#include "src/util/geo.h"
#include "src/util/status.h"

namespace androne {

// A message's wire identity.
struct MavMsgDef {
  MavMsgId id;
  uint8_t crc_extra;  // From the official XML definitions.
  const char* name;   // For error text.
};

// A string field that takes exactly N wire bytes: truncated or NUL-padded
// when packed, cut at the first NUL when unpacked.
template <size_t N, class S>
struct FixedString {
  S& text;
};
template <size_t N, class S>
FixedString<N, S> Fixed(S& text) {
  return {text};
}

struct Heartbeat {
  static constexpr MavMsgDef kDef{MavMsgId::kHeartbeat, 50, "HEARTBEAT"};
  uint32_t custom_mode = 0;  // CopterMode.
  uint8_t type = kMavTypeQuadrotor;
  uint8_t autopilot = kMavAutopilotArdupilot;
  uint8_t base_mode = 0;
  uint8_t system_status = 0;  // MavState.
  uint8_t mavlink_version = 3;

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.custom_mode, m.type, m.autopilot, m.base_mode, m.system_status,
      m.mavlink_version);
  }
};

struct SysStatus {
  static constexpr MavMsgDef kDef{MavMsgId::kSysStatus, 124, "SYS_STATUS"};
  uint32_t sensors_present = 0;
  uint32_t sensors_enabled = 0;
  uint32_t sensors_health = 0;
  uint16_t load = 0;             // 0..1000 (= 0..100%).
  uint16_t voltage_battery = 0;  // mV.
  int16_t current_battery = -1;  // cA.
  uint16_t drop_rate_comm = 0;
  uint16_t errors_comm = 0;
  uint16_t errors_count1 = 0;
  uint16_t errors_count2 = 0;
  uint16_t errors_count3 = 0;
  uint16_t errors_count4 = 0;
  int8_t battery_remaining = -1;  // %.

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.sensors_present, m.sensors_enabled, m.sensors_health, m.load,
      m.voltage_battery, m.current_battery, m.drop_rate_comm, m.errors_comm,
      m.errors_count1, m.errors_count2, m.errors_count3, m.errors_count4,
      m.battery_remaining);
  }
};

struct SetMode {
  static constexpr MavMsgDef kDef{MavMsgId::kSetMode, 89, "SET_MODE"};
  uint32_t custom_mode = 0;
  uint8_t target_system = 1;
  uint8_t base_mode = kMavModeFlagCustomModeEnabled;

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.custom_mode, m.target_system, m.base_mode);
  }
};

struct ParamSet {
  static constexpr MavMsgDef kDef{MavMsgId::kParamSet, 168, "PARAM_SET"};
  float param_value = 0;
  uint8_t target_system = 1;
  uint8_t target_component = 1;
  std::string param_id;  // <= 16 chars.
  uint8_t param_type = 9;  // MAV_PARAM_TYPE_REAL32.

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.param_value, m.target_system, m.target_component,
      Fixed<16>(m.param_id), m.param_type);
  }
};

struct ParamValue {
  static constexpr MavMsgDef kDef{MavMsgId::kParamValue, 220, "PARAM_VALUE"};
  float param_value = 0;
  uint16_t param_count = 0;
  uint16_t param_index = 0;
  std::string param_id;
  uint8_t param_type = 9;

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.param_value, m.param_count, m.param_index, Fixed<16>(m.param_id),
      m.param_type);
  }
};

struct Attitude {
  static constexpr MavMsgDef kDef{MavMsgId::kAttitude, 39, "ATTITUDE"};
  uint32_t time_boot_ms = 0;
  float roll = 0;
  float pitch = 0;
  float yaw = 0;
  float rollspeed = 0;
  float pitchspeed = 0;
  float yawspeed = 0;

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.time_boot_ms, m.roll, m.pitch, m.yaw, m.rollspeed, m.pitchspeed,
      m.yawspeed);
  }
};

struct GlobalPositionInt {
  static constexpr MavMsgDef kDef{MavMsgId::kGlobalPositionInt, 104,
                                  "GLOBAL_POSITION_INT"};
  uint32_t time_boot_ms = 0;
  int32_t lat = 0;           // degE7.
  int32_t lon = 0;           // degE7.
  int32_t alt = 0;           // mm MSL.
  int32_t relative_alt = 0;  // mm above home.
  int16_t vx = 0;            // cm/s north.
  int16_t vy = 0;            // cm/s east.
  int16_t vz = 0;            // cm/s down.
  uint16_t hdg = 0;          // cdeg, 0..35999.

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.time_boot_ms, m.lat, m.lon, m.alt, m.relative_alt, m.vx, m.vy, m.vz,
      m.hdg);
  }
};

struct RcChannelsOverride {
  static constexpr MavMsgDef kDef{MavMsgId::kRcChannelsOverride, 124,
                                  "RC_CHANNELS_OVERRIDE"};
  uint16_t chan[8] = {0, 0, 0, 0, 0, 0, 0, 0};  // PWM us; 0 = release.
  uint8_t target_system = 1;
  uint8_t target_component = 1;

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.chan, m.target_system, m.target_component);
  }
};

struct CommandLong {
  static constexpr MavMsgDef kDef{MavMsgId::kCommandLong, 152,
                                  "COMMAND_LONG"};
  float param1 = 0, param2 = 0, param3 = 0, param4 = 0;
  float param5 = 0, param6 = 0, param7 = 0;
  uint16_t command = 0;  // MavCmd.
  uint8_t target_system = 1;
  uint8_t target_component = 1;
  uint8_t confirmation = 0;

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.param1, m.param2, m.param3, m.param4, m.param5, m.param6, m.param7,
      m.command, m.target_system, m.target_component, m.confirmation);
  }
};

struct CommandAck {
  static constexpr MavMsgDef kDef{MavMsgId::kCommandAck, 143, "COMMAND_ACK"};
  uint16_t command = 0;
  uint8_t result = 0;  // MavResult.

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.command, m.result);
  }
};

struct SetPositionTargetGlobalInt {
  static constexpr MavMsgDef kDef{MavMsgId::kSetPositionTargetGlobalInt, 5,
                                  "SET_POSITION_TARGET_GLOBAL_INT"};
  uint32_t time_boot_ms = 0;
  int32_t lat_int = 0;  // degE7.
  int32_t lon_int = 0;  // degE7.
  float alt = 0;        // m above home (frame 6).
  float vx = 0, vy = 0, vz = 0;
  float afx = 0, afy = 0, afz = 0;
  float yaw = 0, yaw_rate = 0;
  uint16_t type_mask = 0;
  uint8_t target_system = 1;
  uint8_t target_component = 1;
  uint8_t coordinate_frame = 6;  // GLOBAL_RELATIVE_ALT_INT.

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.time_boot_ms, m.lat_int, m.lon_int, m.alt, m.vx, m.vy, m.vz, m.afx,
      m.afy, m.afz, m.yaw, m.yaw_rate, m.type_mask, m.target_system,
      m.target_component, m.coordinate_frame);
  }
};

// A position-only target (type_mask 0x0FF8) at |target|'s relative
// altitude; the degrees truncate to degE7.
SetPositionTargetGlobalInt GotoTarget(const GeoPoint& target);

struct StatusText {
  static constexpr MavMsgDef kDef{MavMsgId::kStatusText, 83, "STATUSTEXT"};
  uint8_t severity = 6;
  std::string text;  // <= 50 chars.

  template <class M, class F>
  static void Fields(M& m, F&& f) {
    f(m.severity, Fixed<50>(m.text));
  }
};

using MavMessage =
    std::variant<Heartbeat, SysStatus, SetMode, ParamSet, ParamValue, Attitude,
                 GlobalPositionInt, RcChannelsOverride, CommandLong,
                 CommandAck, SetPositionTargetGlobalInt, StatusText>;

// Packs a typed message into a frame (seq/sysid/compid left for the caller).
MavlinkFrame PackMessage(const MavMessage& message);

// Decodes a frame's payload into a typed message; fails on unknown ids or
// short payloads.
StatusOr<MavMessage> UnpackMessage(const MavlinkFrame& frame);

// Wire message id of a typed message.
MavMsgId MessageId(const MavMessage& message);

// CRC_EXTRA seed of message |id|; 0 for an id no message has.
uint8_t MavCrcExtra(MavMsgId id);

}  // namespace androne

#endif  // SRC_MAVLINK_MESSAGES_H_
