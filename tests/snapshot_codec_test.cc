// Wire layout of the snapshot codec (DESIGN.md §13), pinned byte by byte
// without the goldens: every fixed-width field is little-endian, strings
// and byte blobs carry a u64 length, and a section is its 4-char tag.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/snapshot/snapshot.h"

namespace androne {
namespace {

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    if (!out.empty()) out += ' ';
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

std::string Written(void (*write)(SnapshotWriter&)) {
  SnapshotWriter w;
  write(w);
  return Hex(w.bytes());
}

TEST(SnapshotTest, WriterPinsTheLittleEndianWireLayout) {
  EXPECT_EQ(Written([](SnapshotWriter& w) { w.U8(0xab); }), "ab");
  EXPECT_EQ(Written([](SnapshotWriter& w) { w.U32(0x04030201); }),
            "01 02 03 04");
  EXPECT_EQ(Written([](SnapshotWriter& w) { w.U64(0x0807060504030201); }),
            "01 02 03 04 05 06 07 08");
  EXPECT_EQ(Written([](SnapshotWriter& w) { w.I64(-2); }),
            "fe ff ff ff ff ff ff ff");
  EXPECT_EQ(Written([](SnapshotWriter& w) { w.F64(1.0); }),
            "00 00 00 00 00 00 f0 3f");
  EXPECT_EQ(Written([](SnapshotWriter& w) { w.F64(-0.0); }),
            "00 00 00 00 00 00 00 80");
  EXPECT_EQ(Written([](SnapshotWriter& w) {
              w.Bool(true);
              w.Bool(false);
            }),
            "01 00");
  EXPECT_EQ(Written([](SnapshotWriter& w) { w.Str("ab"); }),
            "02 00 00 00 00 00 00 00 61 62");
  EXPECT_EQ(Written([](SnapshotWriter& w) {
              const uint8_t blob[] = {0x10, 0x20, 0x30};
              w.Bytes(blob, sizeof(blob));
            }),
            "03 00 00 00 00 00 00 00 10 20 30");
  EXPECT_EQ(Written([](SnapshotWriter& w) { w.Section("TICK"); }),
            "54 49 43 4b");
}

struct Fields {
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  bool flag = false;
  std::string str;
  std::vector<uint8_t> blob;
};

std::string WriteFields() {
  SnapshotWriter w;
  w.Section("CODE");
  w.U8(0xab);
  w.U32(0x04030201);
  w.U64(0x0807060504030201);
  w.I64(-2);
  w.F64(1.0);
  w.Bool(true);
  w.Str("ab");
  const uint8_t blob[] = {0x10, 0x20, 0x30};
  w.Bytes(blob, sizeof(blob));
  return w.Take();
}

Status ReadFields(SnapshotReader& r, Fields* f) {
  RETURN_IF_ERROR(r.Section("CODE"));
  RETURN_IF_ERROR(r.U8(&f->u8));
  RETURN_IF_ERROR(r.U32(&f->u32));
  RETURN_IF_ERROR(r.U64(&f->u64));
  RETURN_IF_ERROR(r.I64(&f->i64));
  RETURN_IF_ERROR(r.F64(&f->f64));
  RETURN_IF_ERROR(r.Bool(&f->flag));
  RETURN_IF_ERROR(r.Str(&f->str));
  return r.BytesInto(&f->blob);
}

TEST(SnapshotTest, ReaderReadsEveryFieldBack) {
  const std::string bytes = WriteFields();
  SnapshotReader r(bytes);
  Fields f;
  ASSERT_TRUE(ReadFields(r, &f).ok());
  EXPECT_EQ(f.u8, 0xab);
  EXPECT_EQ(f.u32, 0x04030201u);
  EXPECT_EQ(f.u64, 0x0807060504030201u);
  EXPECT_EQ(f.i64, -2);
  EXPECT_EQ(f.f64, 1.0);
  EXPECT_TRUE(f.flag);
  EXPECT_EQ(f.str, "ab");
  EXPECT_EQ(f.blob, (std::vector<uint8_t>{0x10, 0x20, 0x30}));
  EXPECT_EQ(r.remaining(), 0u);
}

// Cutting the stream anywhere — inside a tag, a word, a length, or a
// string body — must surface as a Status, never as a read past the end.
TEST(SnapshotTest, TruncationAtEveryWidthReturnsStatus) {
  const std::string bytes = WriteFields();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    SnapshotReader r(std::string_view(bytes).substr(0, cut));
    Fields f;
    EXPECT_FALSE(ReadFields(r, &f).ok()) << "cut at " << cut;
  }
  // A failed read leaves the cursor where it was.
  const std::string word = bytes.substr(0, 4 + 1 + 3);
  SnapshotReader r(word);
  ASSERT_TRUE(r.Section("CODE").ok());
  uint8_t u8 = 0;
  ASSERT_TRUE(r.U8(&u8).ok());
  uint32_t u32 = 0;
  EXPECT_FALSE(r.U32(&u32).ok());
  EXPECT_EQ(u32, 0u);
  EXPECT_EQ(r.position(), 5u);
  EXPECT_EQ(r.remaining(), 3u);
}

}  // namespace
}  // namespace androne
