#include "src/util/bytes.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace androne {
namespace {

TEST(BytesTest, LittleEndianLayout) {
  ByteWriter w;
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 6u);
  EXPECT_EQ(d[0], 0x34);
  EXPECT_EQ(d[1], 0x12);
  EXPECT_EQ(d[2], 0xEF);
  EXPECT_EQ(d[3], 0xBE);
  EXPECT_EQ(d[4], 0xAD);
  EXPECT_EQ(d[5], 0xDE);
}

TEST(BytesTest, RoundTripAllTypes) {
  ByteWriter w;
  w.PutU8(250);
  w.PutI8(-3);
  w.PutU16(65000);
  w.PutI16(-12345);
  w.PutU32(4000000000u);
  w.PutI32(-2000000000);
  w.PutFloat(3.14f);
  w.PutFixedString("drone", 8);

  ByteReader r(w.data());
  uint8_t u8;
  int8_t i8;
  uint16_t u16;
  int16_t i16;
  uint32_t u32;
  int32_t i32;
  float f;
  std::string s;
  ASSERT_TRUE(r.GetU8(u8));
  ASSERT_TRUE(r.GetI8(i8));
  ASSERT_TRUE(r.GetU16(u16));
  ASSERT_TRUE(r.GetI16(i16));
  ASSERT_TRUE(r.GetU32(u32));
  ASSERT_TRUE(r.GetI32(i32));
  ASSERT_TRUE(r.GetFloat(f));
  ASSERT_TRUE(r.GetFixedString(s, 8));
  EXPECT_EQ(u8, 250);
  EXPECT_EQ(i8, -3);
  EXPECT_EQ(u16, 65000);
  EXPECT_EQ(i16, -12345);
  EXPECT_EQ(u32, 4000000000u);
  EXPECT_EQ(i32, -2000000000);
  EXPECT_FLOAT_EQ(f, 3.14f);
  EXPECT_EQ(s, "drone");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, UnderflowPoisonsReader) {
  ByteWriter w;
  w.PutU16(7);
  ByteReader r(w.data());
  uint32_t v32 = 99;
  EXPECT_FALSE(r.GetU32(v32));
  EXPECT_EQ(v32, 99u);  // Untouched on failure.
  EXPECT_TRUE(r.failed());
  uint8_t v8;
  EXPECT_FALSE(r.GetU8(v8));  // Poisoned: even in-bounds reads fail.
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, FixedStringTruncatesAndPads) {
  ByteWriter w;
  w.PutFixedString("toolongvalue", 4);
  w.PutFixedString("ab", 4);
  ByteReader r(w.data());
  std::string a, b;
  ASSERT_TRUE(r.GetFixedString(a, 4));
  ASSERT_TRUE(r.GetFixedString(b, 4));
  EXPECT_EQ(a, "tool");
  EXPECT_EQ(b, "ab");
}

class BytesFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// Property: any random write sequence reads back identically.
TEST_P(BytesFuzzTest, RandomSequencesRoundTrip) {
  Rng rng(GetParam());
  ByteWriter w;
  std::vector<uint64_t> values;
  std::vector<int> kinds;
  size_t n = 1 + rng.NextU64Below(64);
  for (size_t i = 0; i < n; ++i) {
    int kind = static_cast<int>(rng.NextU64Below(3));
    uint64_t v = rng.NextU64();
    kinds.push_back(kind);
    values.push_back(v);
    switch (kind) {
      case 0:
        w.PutU8(static_cast<uint8_t>(v));
        break;
      case 1:
        w.PutU16(static_cast<uint16_t>(v));
        break;
      default:
        w.PutU32(static_cast<uint32_t>(v));
        break;
    }
  }
  ByteReader r(w.data());
  for (size_t i = 0; i < n; ++i) {
    switch (kinds[i]) {
      case 0: {
        uint8_t v;
        ASSERT_TRUE(r.GetU8(v));
        EXPECT_EQ(v, static_cast<uint8_t>(values[i]));
        break;
      }
      case 1: {
        uint16_t v;
        ASSERT_TRUE(r.GetU16(v));
        EXPECT_EQ(v, static_cast<uint16_t>(values[i]));
        break;
      }
      default: {
        uint32_t v;
        ASSERT_TRUE(r.GetU32(v));
        EXPECT_EQ(v, static_cast<uint32_t>(values[i]));
        break;
      }
    }
  }
  EXPECT_EQ(r.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesFuzzTest,
                         ::testing::Range<uint64_t>(1, 17));

TEST(Fnv1a64Test, KnownVectorsAndChaining) {
  // Standard FNV-1a reference values.
  EXPECT_EQ(Fnv1a64("", 0), 14695981039346656037ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 12638187200555641996ULL);
  // Chaining via the seed equals hashing the concatenation.
  uint64_t part = Fnv1a64("ab", 2);
  EXPECT_EQ(Fnv1a64("cd", 2, part), Fnv1a64("abcd", 4));
  // Value helper hashes the raw bytes.
  uint32_t v = 0x01020304;
  EXPECT_EQ(Fnv1a64Value(v), Fnv1a64(&v, sizeof(v)));
}

}  // namespace
}  // namespace androne
