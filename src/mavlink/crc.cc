#include "src/mavlink/crc.h"

namespace androne {

uint16_t MavCrcAccumulate(uint8_t byte, uint16_t crc) {
  uint8_t tmp = byte ^ static_cast<uint8_t>(crc & 0xFF);
  tmp ^= static_cast<uint8_t>(tmp << 4);
  return static_cast<uint16_t>((crc >> 8) ^ (tmp << 8) ^ (tmp << 3) ^
                               (tmp >> 4));
}

uint16_t MavCrc(const uint8_t* data, size_t len, uint16_t crc) {
  for (size_t i = 0; i < len; ++i) {
    crc = MavCrcAccumulate(data[i], crc);
  }
  return crc;
}

}  // namespace androne
