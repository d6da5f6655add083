// CRC-16/X.25 (MCRF4XX) as used by the MAVLink checksum. The frame CRC
// (src/mavlink/frame.cc) ends with the message's CRC_EXTRA byte, which seals
// the message definition.
#ifndef SRC_MAVLINK_CRC_H_
#define SRC_MAVLINK_CRC_H_

#include <cstddef>
#include <cstdint>

namespace androne {

inline constexpr uint16_t kCrcInit = 0xFFFF;

// Accumulates one byte into the running CRC.
uint16_t MavCrcAccumulate(uint8_t byte, uint16_t crc);

// Accumulates a buffer into the running CRC |crc|; a fresh CRC starts from
// kCrcInit.
uint16_t MavCrc(const uint8_t* data, size_t len, uint16_t crc = kCrcInit);

}  // namespace androne

#endif  // SRC_MAVLINK_CRC_H_
