// Snapshot container: framed round-trip fidelity (including NaN/inf bit
// patterns), CRC rejection of corruption, truncation handling at every
// prefix, app-tag/version gating, and atomic file persistence.
#include "common/snapshot.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/check.h"

namespace ccperf {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

constexpr std::uint32_t kTag = 0x54455354u;  // 'TEST'

SnapshotWriter MakeSample() {
  SnapshotWriter writer(kTag);
  SnapshotSectionWriter& meta = writer.AddSection("meta");
  meta.PutU8(7);
  meta.PutU32(0xDEADBEEFu);
  meta.PutU64(1ull << 40);
  meta.PutI64(-42);
  meta.PutBool(true);
  meta.PutF64(3.141592653589793);
  meta.PutString("hello snapshot");
  meta.PutText("model text");
  SnapshotSectionWriter& data = writer.AddSection("data");
  data.PutF64Vector({1.0, -0.0, std::numeric_limits<double>::infinity(),
                     std::nan("0x5CA1AB1E"), 1e-308});
  data.PutI64Vector({0, -1, std::numeric_limits<std::int64_t>::max()});
  const std::vector<float> floats{-0.0f, std::nanf("0x1F00D"), 1e-45f};
  data.PutF32Vector(floats);
  return writer;
}

/// Fixed-seed splitmix64 stream: test bytes that depend on nothing but
/// this file.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Bit-at-a-time reflected CRC-32, with no table: the oracle for the
/// library's sliced one.
std::uint32_t BitwiseCrc32(const unsigned char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> SeededBuffer(std::size_t size) {
  SplitMix gen(1984);
  std::vector<unsigned char> buffer(size);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(gen.Next());
  return buffer;
}

TEST(Crc32Test, MatchesKnownVectors) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string("")), 0u);
  EXPECT_NE(Crc32(std::string("a")), Crc32(std::string("b")));
}

TEST(Crc32Test, SlicedMatchesBitwiseAtEveryLengthAndAlignment) {
  // Lengths up to 1024 cover every head/word/tail split of the 8-byte loop
  // and every split of the 64-byte fold threshold and its 16-byte tail;
  // start offsets 0..15 cover every alignment of both loops' loads.
  const std::vector<unsigned char> buffer = SeededBuffer(1024 + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const unsigned char* start = buffer.data() + offset;
      ASSERT_EQ(Crc32(start, length), BitwiseCrc32(start, length))
          << "offset " << offset << ", length " << length;
    }
  }
  const std::vector<unsigned char> large = SeededBuffer((1u << 20) + 13);
  EXPECT_EQ(Crc32(large.data(), large.size()),
            BitwiseCrc32(large.data(), large.size()));
}

TEST(Crc32Test, UpdateChainsAtEverySplitPoint) {
  const std::vector<unsigned char> buffer = SeededBuffer(1000);
  const std::uint32_t whole = Crc32(buffer.data(), buffer.size());
  EXPECT_EQ(whole, BitwiseCrc32(buffer.data(), buffer.size()));
  EXPECT_EQ(Crc32Update(0, buffer.data(), buffer.size()), whole);
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const std::uint32_t head = Crc32(buffer.data(), split);
    ASSERT_EQ(Crc32Update(head, buffer.data() + split, buffer.size() - split),
              whole)
        << "split at " << split;
  }
}

TEST(SnapshotTest, RoundTripsEveryFieldBitwise) {
  const std::string bytes = MakeSample().Serialize();
  const SnapshotReader reader = SnapshotReader::Parse(bytes, kTag);
  EXPECT_EQ(reader.SectionCount(), 2u);
  EXPECT_TRUE(reader.Has("meta"));
  EXPECT_TRUE(reader.Has("data"));
  EXPECT_FALSE(reader.Has("absent"));

  SnapshotSectionReader meta = reader.Section("meta");
  EXPECT_EQ(meta.TakeU8(), 7);
  EXPECT_EQ(meta.TakeU32(), 0xDEADBEEFu);
  EXPECT_EQ(meta.TakeU64(), 1ull << 40);
  EXPECT_EQ(meta.TakeI64(), -42);
  EXPECT_TRUE(meta.TakeBool());
  EXPECT_EQ(meta.TakeF64(), 3.141592653589793);
  EXPECT_EQ(meta.TakeString(), "hello snapshot");
  EXPECT_EQ(meta.TakeText(), "model text");
  EXPECT_NO_THROW(meta.ExpectEnd());

  SnapshotSectionReader data = reader.Section("data");
  const std::vector<double> doubles = data.TakeF64Vector();
  ASSERT_EQ(doubles.size(), 5u);
  EXPECT_EQ(doubles[0], 1.0);
  EXPECT_EQ(doubles[1], 0.0);
  EXPECT_TRUE(std::signbit(doubles[1])) << "-0.0 must survive bitwise";
  EXPECT_TRUE(std::isinf(doubles[2]));
  EXPECT_TRUE(std::isnan(doubles[3])) << "NaN payload must survive";
  EXPECT_EQ(doubles[4], 1e-308);
  const std::vector<std::int64_t> ints = data.TakeI64Vector();
  ASSERT_EQ(ints.size(), 3u);
  EXPECT_EQ(ints[1], -1);
  EXPECT_EQ(ints[2], std::numeric_limits<std::int64_t>::max());
  const std::vector<float> floats = data.TakeF32Vector();
  ASSERT_EQ(floats.size(), 3u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(floats[0]), 0x80000000u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(floats[1]),
            std::bit_cast<std::uint32_t>(std::nanf("0x1F00D")));
  EXPECT_EQ(floats[2], 1e-45f);
  EXPECT_NO_THROW(data.ExpectEnd());

  // Text past PutString's 64 KiB cap round-trips through PutText.
  const std::string long_text(70000, 'x');
  SnapshotWriter text_writer(kTag);
  EXPECT_THROW(text_writer.AddSection("s").PutString(long_text), CheckError);
  text_writer.AddSection("t").PutText(long_text);
  const SnapshotReader text_reader =
      SnapshotReader::Parse(std::move(text_writer).Serialize(), kTag);
  EXPECT_EQ(text_reader.Section("t").TakeText(), long_text);
}

/// Every Put* kind, and vectors of length 0, 1 and 1000 of every element
/// type, from a fixed seed.
SnapshotWriter MakeEveryKindSample() {
  SplitMix gen(2020);
  SnapshotWriter writer(kTag);
  SnapshotSectionWriter& scalars = writer.AddSection("scalars");
  scalars.PutU8(0xA5);
  scalars.PutU32(0xDEADBEEFu);
  scalars.PutU64(gen.Next());
  scalars.PutI64(-static_cast<std::int64_t>(gen.Next() >> 1));
  scalars.PutBool(true);
  scalars.PutBool(false);
  scalars.PutF64(-0.0);
  scalars.PutString("pinned bytes");
  for (const std::size_t n : {0u, 1u, 1000u}) {
    std::vector<double> doubles(n);
    std::vector<std::int64_t> ints(n);
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t k = 0; k < n; ++k) {
      // Raw bit patterns: NaN payloads and denormals included.
      const std::uint64_t bits = gen.Next();
      std::memcpy(&doubles[k], &bits, sizeof(bits));
      ints[k] = static_cast<std::int64_t>(gen.Next());
      bytes[k] = static_cast<std::uint8_t>(gen.Next());
    }
    SnapshotSectionWriter& section =
        writer.AddSection("n" + std::to_string(n));
    section.PutF64Vector(doubles);
    section.PutI64Vector(ints);
    section.PutU8Vector(bytes);
  }
  return writer;
}

TEST(SnapshotTest, EveryKindEncodesToPinnedBytes) {
  // Size and CRC-32 of MakeEveryKindSample(), recorded from the
  // element-at-a-time encoder (byte vectors as a u64 count plus one PutU8
  // per byte) with the byte-at-a-time CRC that preceded the bulk ones. Any
  // change to the wire format must show up here.
  const std::string bytes = MakeEveryKindSample().Serialize();
  EXPECT_EQ(bytes.size(), 17230u);
  EXPECT_EQ(Crc32(bytes), 0xA7AE7457u);

  // The bulk reader returns what the writer put, bit for bit.
  const SnapshotReader reader = SnapshotReader::Parse(bytes, kTag);
  SplitMix gen(2020);
  SnapshotSectionReader scalars = reader.Section("scalars");
  EXPECT_EQ(scalars.TakeU8(), 0xA5);
  EXPECT_EQ(scalars.TakeU32(), 0xDEADBEEFu);
  EXPECT_EQ(scalars.TakeU64(), gen.Next());
  EXPECT_EQ(scalars.TakeI64(), -static_cast<std::int64_t>(gen.Next() >> 1));
  EXPECT_TRUE(scalars.TakeBool());
  EXPECT_FALSE(scalars.TakeBool());
  EXPECT_TRUE(std::signbit(scalars.TakeF64()));
  EXPECT_EQ(scalars.TakeString(), "pinned bytes");
  EXPECT_NO_THROW(scalars.ExpectEnd());
  for (const std::size_t n : {0u, 1u, 1000u}) {
    SnapshotSectionReader section = reader.Section("n" + std::to_string(n));
    const std::vector<double> doubles = section.TakeF64Vector();
    const std::vector<std::int64_t> ints = section.TakeI64Vector();
    const std::vector<std::uint8_t> bytes_back = section.TakeU8Vector();
    EXPECT_NO_THROW(section.ExpectEnd());
    ASSERT_EQ(doubles.size(), n);
    ASSERT_EQ(ints.size(), n);
    ASSERT_EQ(bytes_back.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &doubles[k], sizeof(bits));
      EXPECT_EQ(bits, gen.Next());
      EXPECT_EQ(ints[k], static_cast<std::int64_t>(gen.Next()));
      EXPECT_EQ(bytes_back[k], static_cast<std::uint8_t>(gen.Next()));
    }
  }
}

TEST(SnapshotTest, WideningPutEncodesLikeTheWidenedVector) {
  // Lengths 0 and 1, the int32 extremes, and a run longer than one
  // widening block.
  std::vector<std::int32_t> long_run(1500);
  SplitMix gen(32);
  for (std::int32_t& v : long_run) v = static_cast<std::int32_t>(gen.Next());
  const std::vector<std::vector<std::int32_t>> inputs = {
      {},
      {-7},
      {std::numeric_limits<std::int32_t>::min(),
       std::numeric_limits<std::int32_t>::max(), 0, 1, -1},
      long_run};
  for (const std::vector<std::int32_t>& narrow : inputs) {
    SnapshotWriter widened(kTag);
    widened.AddSection("v").PutI64VectorFrom32(narrow);
    SnapshotWriter wide(kTag);
    wide.AddSection("v").PutI64Vector({narrow.begin(), narrow.end()});
    EXPECT_EQ(std::move(widened).Serialize(), std::move(wide).Serialize())
        << narrow.size() << " elements";
  }
}

TEST(SnapshotTest, BulkVectorReadsAreBoundsChecked) {
  // A count that promises more elements than the payload holds must throw
  // before any copy, for every element width.
  SnapshotWriter writer(kTag);
  SnapshotSectionWriter& section = writer.AddSection("short");
  section.PutU64(3);
  section.PutU8(1);
  section.PutU8(0);
  const SnapshotReader reader = SnapshotReader::Parse(writer.Serialize(), kTag);
  EXPECT_THROW((void)reader.Section("short").TakeU8Vector(), CheckError);
  EXPECT_THROW((void)reader.Section("short").TakeI64Vector(), CheckError);
  EXPECT_THROW((void)reader.Section("short").TakeF64Vector(), CheckError);
  EXPECT_THROW((void)reader.Section("short").TakeF32Vector(), CheckError);
  EXPECT_THROW((void)reader.Section("short").TakeText(), CheckError);
}

TEST(SnapshotTest, RejectsWrongAppTagAndBadMagic) {
  const std::string bytes = MakeSample().Serialize();
  EXPECT_THROW((void)SnapshotReader::Parse(bytes, kTag + 1), CheckError);
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_THROW((void)SnapshotReader::Parse(wrong_magic, kTag), CheckError);
  EXPECT_THROW((void)SnapshotReader::Parse(std::string(), kTag), CheckError);
}

TEST(SnapshotTest, EveryByteFlipIsDetected) {
  // Any one-byte corruption must fail parsing or leave the payload intact
  // (flips inside CRC fields themselves break the CRC match).
  const std::string pristine = MakeSample().Serialize();
  int rejected = 0;
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    std::string mutated = pristine;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    try {
      (void)SnapshotReader::Parse(mutated, kTag);
      ADD_FAILURE() << "byte " << i << " flip was not detected";
    } catch (const CheckError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, static_cast<int>(pristine.size()));
}

TEST(SnapshotTest, EveryTruncationIsDetected) {
  const std::string pristine = MakeSample().Serialize();
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    EXPECT_THROW((void)SnapshotReader::Parse(pristine.substr(0, cut), kTag),
                 CheckError)
        << "prefix of " << cut << " bytes parsed";
  }
  EXPECT_THROW((void)SnapshotReader::Parse(pristine + "x", kTag), CheckError)
      << "trailing garbage must be rejected";
}

TEST(SnapshotTest, SectionReaderBoundsChecks) {
  SnapshotWriter writer(kTag);
  writer.AddSection("s").PutU32(5);
  const SnapshotReader reader = SnapshotReader::Parse(writer.Serialize(), kTag);
  SnapshotSectionReader section = reader.Section("s");
  EXPECT_THROW(section.ExpectEnd(), CheckError) << "unread bytes remain";
  EXPECT_EQ(section.TakeU32(), 5u);
  EXPECT_THROW((void)section.TakeU32(), CheckError) << "read past end";
  EXPECT_THROW((void)reader.Section("missing"), CheckError);
}

TEST(SnapshotTest, DuplicateSectionNamesAreRejected) {
  SnapshotWriter writer(kTag);
  writer.AddSection("twice");
  EXPECT_THROW((void)writer.AddSection("twice"), CheckError);
  EXPECT_THROW((void)writer.AddSection(""), CheckError);
}

TEST(SnapshotFileTest, AtomicWriteRoundTripsAndReplacesCleanly) {
  const std::string path = TempPath("snapshot_atomic.ccsn");
  WriteSnapshotFileAtomic(path, MakeSample());
  {
    const SnapshotReader reader = SnapshotReader::FromFile(path, kTag);
    EXPECT_EQ(reader.SectionCount(), 2u);
  }
  // Overwrite with a different snapshot; the reader must see the new one.
  SnapshotWriter second(kTag);
  second.AddSection("only").PutU64(99);
  WriteSnapshotFileAtomic(path, second);
  const SnapshotReader reader = SnapshotReader::FromFile(path, kTag);
  EXPECT_EQ(reader.SectionCount(), 1u);
  SnapshotSectionReader only = reader.Section("only");
  EXPECT_EQ(only.TakeU64(), 99u);
  // No tmp residue from successful writes.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, MissingAndCorruptFilesThrowWithPath) {
  EXPECT_THROW((void)SnapshotReader::FromFile("/nonexistent/snap.ccsn", kTag),
               CheckError);
  const std::string path = TempPath("snapshot_corrupt.ccsn");
  {
    std::ofstream out(path, std::ios::binary);
    out << "CCSNgarbage-that-is-not-a-snapshot";
  }
  EXPECT_THROW((void)SnapshotReader::FromFile(path, kTag), CheckError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccperf
