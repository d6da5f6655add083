// Little-endian byte stream codecs, used by the MAVLink wire protocol
// implementation and container image serialization.
#ifndef SRC_UTIL_BYTES_H_
#define SRC_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace androne {

// FNV-1a 64-bit hash. Chainable: pass a previous digest as |seed| to extend
// it over more data. Used for the determinism digests (flight logs,
// histograms, fleet results) — stable across platforms, not cryptographic.
inline constexpr uint64_t kFnv1a64Offset = 14695981039346656037ULL;
uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed = kFnv1a64Offset);

// Convenience: hashes a trivially-copyable value's bytes into |seed|.
template <typename T>
uint64_t Fnv1a64Value(const T& value, uint64_t seed = kFnv1a64Offset) {
  return Fnv1a64(&value, sizeof(value), seed);
}

class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutI8(int8_t v) { PutU8(static_cast<uint8_t>(v)); }
  void PutU16(uint16_t v);
  void PutI16(int16_t v) { PutU16(static_cast<uint16_t>(v)); }
  void PutU32(uint32_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutFloat(float v);
  void PutDouble(double v);
  void PutBytes(const uint8_t* data, size_t n);
  // Writes exactly |n| bytes: the string truncated or zero-padded.
  void PutFixedString(const std::string& s, size_t n);

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& v)
      : data_(v.data()), size_(v.size()) {}

  // All getters return false (and leave the output untouched) on underflow;
  // once a read fails the reader is poisoned and further reads also fail.
  bool GetU8(uint8_t& v);
  bool GetI8(int8_t& v);
  bool GetU16(uint16_t& v);
  bool GetI16(int16_t& v);
  bool GetU32(uint32_t& v);
  bool GetI32(int32_t& v);
  bool GetU64(uint64_t& v);
  bool GetI64(int64_t& v);
  bool GetFloat(float& v);
  bool GetDouble(double& v);
  // Reads |n| bytes and strips trailing NULs.
  bool GetFixedString(std::string& out, size_t n);
  // Reads exactly |n| bytes, preserving embedded/trailing NULs.
  bool GetBlob(std::string& out, size_t n);

  size_t remaining() const { return failed_ ? 0 : size_ - pos_; }
  bool failed() const { return failed_; }

 private:
  bool Take(void* out, size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace androne

#endif  // SRC_UTIL_BYTES_H_
