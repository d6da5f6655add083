#include "src/mavlink/messages.h"

#include <array>
#include <type_traits>

#include "src/util/bytes.h"

namespace androne {

namespace {

// The wire form of each field kind, both ways (little-endian).
void Put(ByteWriter& w, uint8_t v) { w.PutU8(v); }
void Put(ByteWriter& w, int8_t v) { w.PutI8(v); }
void Put(ByteWriter& w, uint16_t v) { w.PutU16(v); }
void Put(ByteWriter& w, int16_t v) { w.PutI16(v); }
void Put(ByteWriter& w, uint32_t v) { w.PutU32(v); }
void Put(ByteWriter& w, int32_t v) { w.PutI32(v); }
void Put(ByteWriter& w, float v) { w.PutFloat(v); }
template <class T, size_t N>
void Put(ByteWriter& w, const T (&values)[N]) {
  for (const T& v : values) {
    Put(w, v);
  }
}
template <size_t N, class S>
void Put(ByteWriter& w, FixedString<N, S> s) {
  w.PutFixedString(s.text, N);
}

// A failed read poisons the reader, so the caller checks once at the end.
void Get(ByteReader& r, uint8_t& v) { r.GetU8(v); }
void Get(ByteReader& r, int8_t& v) { r.GetI8(v); }
void Get(ByteReader& r, uint16_t& v) { r.GetU16(v); }
void Get(ByteReader& r, int16_t& v) { r.GetI16(v); }
void Get(ByteReader& r, uint32_t& v) { r.GetU32(v); }
void Get(ByteReader& r, int32_t& v) { r.GetI32(v); }
void Get(ByteReader& r, float& v) { r.GetFloat(v); }
template <class T, size_t N>
void Get(ByteReader& r, T (&values)[N]) {
  for (T& v : values) {
    Get(r, v);
  }
}
template <size_t N>
void Get(ByteReader& r, FixedString<N, std::string> s) {
  r.GetFixedString(s.text, N);
}

template <class M>
StatusOr<MavMessage> Unpack(const std::vector<uint8_t>& payload) {
  M m;
  ByteReader r(payload);
  M::Fields(m, [&r](auto&&... field) { (Get(r, field), ...); });
  if (r.failed()) {
    return InvalidArgumentError(std::string("short payload for ") +
                                M::kDef.name);
  }
  return MavMessage{std::move(m)};
}

// What the framing and decoding of one wire id need; a null |unpack| marks
// an id no message has.
struct Codec {
  uint8_t crc_extra = 0;
  StatusOr<MavMessage> (*unpack)(const std::vector<uint8_t>&) = nullptr;
};

template <class... M>
constexpr std::array<Codec, 256> CodecsById(
    std::type_identity<std::variant<M...>>) {
  std::array<Codec, 256> codecs{};
  ((codecs[static_cast<uint8_t>(M::kDef.id)] =
        Codec{M::kDef.crc_extra, &Unpack<M>}),
   ...);
  return codecs;
}

template <class... M>
constexpr bool IdsDistinct(std::type_identity<std::variant<M...>>) {
  std::array<bool, 256> taken{};
  for (MavMsgId id : {M::kDef.id...}) {
    if (taken[static_cast<uint8_t>(id)]) {
      return false;
    }
    taken[static_cast<uint8_t>(id)] = true;
  }
  return true;
}

static_assert(IdsDistinct(std::type_identity<MavMessage>{}),
              "two MAVLink messages share a message id");

constexpr std::array<Codec, 256> kCodecs =
    CodecsById(std::type_identity<MavMessage>{});

}  // namespace

MavMsgId MessageId(const MavMessage& message) {
  return std::visit(
      [](const auto& m) { return std::decay_t<decltype(m)>::kDef.id; },
      message);
}

uint8_t MavCrcExtra(MavMsgId id) {
  return kCodecs[static_cast<uint8_t>(id)].crc_extra;
}

MavlinkFrame PackMessage(const MavMessage& message) {
  return std::visit(
      [](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        ByteWriter w;
        M::Fields(m, [&w](const auto&... field) { (Put(w, field), ...); });
        MavlinkFrame frame;
        frame.msgid = M::kDef.id;
        frame.payload = w.Take();
        return frame;
      },
      message);
}

StatusOr<MavMessage> UnpackMessage(const MavlinkFrame& frame) {
  const Codec& codec = kCodecs[static_cast<uint8_t>(frame.msgid)];
  if (codec.unpack == nullptr) {
    return UnimplementedError("unknown MAVLink message id " +
                              std::to_string(static_cast<int>(frame.msgid)));
  }
  return codec.unpack(frame.payload);
}

SetPositionTargetGlobalInt GotoTarget(const GeoPoint& target) {
  SetPositionTargetGlobalInt sp;
  sp.lat_int = static_cast<int32_t>(target.latitude_deg * 1e7);
  sp.lon_int = static_cast<int32_t>(target.longitude_deg * 1e7);
  sp.alt = static_cast<float>(target.altitude_m);
  sp.type_mask = 0x0FF8;  // Position only.
  return sp;
}

}  // namespace androne
