#include "src/util/bytes.h"

namespace androne {

void ByteWriter::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v & 0xFF));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::PutU32(uint32_t v) {
  PutU16(static_cast<uint16_t>(v & 0xFFFF));
  PutU16(static_cast<uint16_t>(v >> 16));
}

void ByteWriter::PutFloat(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits);
}

void ByteWriter::PutBytes(const uint8_t* data, size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

void ByteWriter::PutFixedString(const std::string& s, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    PutU8(i < s.size() ? static_cast<uint8_t>(s[i]) : 0);
  }
}

bool ByteReader::Take(void* out, size_t n) {
  if (failed_ || pos_ + n > size_) {
    failed_ = true;
    return false;
  }
  if (n == 0) {
    return true;  // |out| may be null (an empty vector's data()).
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::GetU8(uint8_t& v) { return Take(&v, 1); }
bool ByteReader::GetI8(int8_t& v) { return Take(&v, 1); }

bool ByteReader::GetU16(uint16_t& v) {
  uint8_t b[2];
  if (!Take(b, 2)) {
    return false;
  }
  v = static_cast<uint16_t>(b[0] | (b[1] << 8));
  return true;
}

bool ByteReader::GetI16(int16_t& v) {
  uint16_t u;
  if (!GetU16(u)) {
    return false;
  }
  v = static_cast<int16_t>(u);
  return true;
}

bool ByteReader::GetU32(uint32_t& v) {
  uint8_t b[4];
  if (!Take(b, 4)) {
    return false;
  }
  v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
      (static_cast<uint32_t>(b[2]) << 16) | (static_cast<uint32_t>(b[3]) << 24);
  return true;
}

bool ByteReader::GetI32(int32_t& v) {
  uint32_t u;
  if (!GetU32(u)) {
    return false;
  }
  v = static_cast<int32_t>(u);
  return true;
}

bool ByteReader::GetFloat(float& v) {
  uint32_t bits;
  if (!GetU32(bits)) {
    return false;
  }
  std::memcpy(&v, &bits, sizeof(v));
  return true;
}

bool ByteReader::GetBlob(std::string& out, size_t n) {
  std::vector<uint8_t> buf(n);
  if (!Take(buf.data(), n)) {
    return false;
  }
  out.assign(reinterpret_cast<const char*>(buf.data()), n);
  return true;
}

bool ByteReader::GetFixedString(std::string& out, size_t n) {
  std::vector<uint8_t> buf(n);
  if (!Take(buf.data(), n)) {
    return false;
  }
  size_t len = 0;
  while (len < n && buf[len] != 0) {
    ++len;
  }
  out.assign(reinterpret_cast<const char*>(buf.data()), len);
  return true;
}

uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= kPrime;
  }
  return hash;
}

}  // namespace androne
