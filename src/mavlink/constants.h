// MAVLink common-dialect constants used by AnDrone's flight stack.
#ifndef SRC_MAVLINK_CONSTANTS_H_
#define SRC_MAVLINK_CONSTANTS_H_

#include <cstdint>

namespace androne {

// Message ids (MAVLink v1 common dialect).
enum class MavMsgId : uint8_t {
  kHeartbeat = 0,
  kSysStatus = 1,
  kSetMode = 11,
  kParamValue = 22,
  kParamSet = 23,
  kAttitude = 30,
  kGlobalPositionInt = 33,
  kRcChannelsOverride = 70,
  kCommandLong = 76,
  kCommandAck = 77,
  kSetPositionTargetGlobalInt = 86,
  kStatusText = 253,
};

// MAV_CMD values.
enum class MavCmd : uint16_t {
  kNavWaypoint = 16,
  kNavLoiterUnlimited = 17,
  kNavReturnToLaunch = 20,
  kNavLand = 21,
  kNavTakeoff = 22,
  kConditionYaw = 115,
  kDoSetMode = 176,
  kDoChangeSpeed = 178,
  kDoSetRoi = 201,
  kDoDigicamControl = 203,
  kDoMountControl = 205,
  kComponentArmDisarm = 400,
};

// MAV_RESULT values.
enum class MavResult : uint8_t {
  kAccepted = 0,
  kTemporarilyRejected = 1,
  kDenied = 2,
  kUnsupported = 3,
  kFailed = 4,
};

// ArduPilot Copter flight modes (custom_mode in HEARTBEAT/SET_MODE).
enum class CopterMode : uint32_t {
  kStabilize = 0,
  kAltHold = 2,
  kAuto = 3,
  kGuided = 4,
  kLoiter = 5,
  kRtl = 6,
  kLand = 9,
};

const char* CopterModeName(CopterMode mode);

// MAV_TYPE / MAV_AUTOPILOT for heartbeats.
inline constexpr uint8_t kMavTypeQuadrotor = 2;
inline constexpr uint8_t kMavAutopilotArdupilot = 3;

// MAV_STATE.
enum class MavState : uint8_t {
  kUninit = 0,
  kBoot = 1,
  kCalibrating = 2,
  kStandby = 3,
  kActive = 4,
  kCritical = 5,
  kEmergency = 6,
  kPoweroff = 7,
};

// base_mode flag: system is armed.
inline constexpr uint8_t kMavModeFlagSafetyArmed = 0x80;
inline constexpr uint8_t kMavModeFlagCustomModeEnabled = 0x01;

// MAV_SYS_STATUS_SENSOR bits for SYS_STATUS sensors_present/enabled/health
// (subset of the official enum that AnDrone models).
inline constexpr uint32_t kSensorGyro = 0x01;
inline constexpr uint32_t kSensorAccel = 0x02;
inline constexpr uint32_t kSensorMag = 0x04;
inline constexpr uint32_t kSensorBaro = 0x08;
inline constexpr uint32_t kSensorGps = 0x20;

// Severity for STATUSTEXT (subset of RFC 5424).
enum class MavSeverity : uint8_t {
  kEmergency = 0,
  kCritical = 2,
  kError = 3,
  kWarning = 4,
  kNotice = 5,
  kInfo = 6,
};

}  // namespace androne

#endif  // SRC_MAVLINK_CONSTANTS_H_
