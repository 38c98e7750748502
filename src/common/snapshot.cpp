#include "common/snapshot.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/check.h"

namespace ccperf {

// The format is little-endian, and fields, vectors and the CRC's 8-byte
// words are copied in host byte order; a big-endian host would write and
// read snapshots no little-endian host can parse, so it must not compile.
static_assert(std::endian::native == std::endian::little,
              "snapshot fields are copied in host byte order and the format "
              "is little-endian");

namespace {

constexpr char kMagic[4] = {'C', 'C', 'S', 'N'};
constexpr char kFooter[4] = {'S', 'N', 'E', 'N'};
constexpr std::uint32_t kFormatVersion = 1;
// A snapshot section beyond this is a corrupted length field, not data:
// the serving engine's largest section (latency samples) stays far below.
constexpr std::uint64_t kMaxSectionBytes = 1ull << 31;
constexpr std::size_t kMaxSections = 1024;
constexpr std::size_t kMaxVectorElements = 1u << 28;

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables: tables[0] is the byte-at-a-time table, and
// tables[k][b] is the CRC of byte b followed by k zero bytes, so one 8-byte
// word folds in with eight independent lookups.
constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t c = tables[k - 1][i];
      tables[k][i] = (c >> 8) ^ tables[0][c & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

template <typename T>
void AppendPod(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

#if defined(__unix__) || defined(__APPLE__)
// Flush a path's data (or, for a directory, its entries) to stable
// storage; errors throw CheckError naming the path. An fsync that fails
// may leave the kernel's dirty state unknowable, so surfacing it loudly
// beats pretending the snapshot is durable.
void FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  CCPERF_CHECK(fd >= 0, "cannot open '", path, "' for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  CCPERF_CHECK(rc == 0, "fsync failed for '", path, "'");
}

// Directory half of the atomic write-rename protocol: rename() makes the
// new name visible, but only an fsync of the *containing directory* makes
// it durable — a crash before that can resurrect the old directory entry.
void FsyncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  FsyncPath(slash == std::string::npos ? std::string(".")
                                       : path.substr(0, slash + 1));
}
#endif

}  // namespace

std::uint32_t Crc32Update(std::uint32_t crc, const void* data,
                          std::size_t size) {
  const CrcTables& t = kCrcTables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc ^= 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, bytes, sizeof(lo));
    std::memcpy(&hi, bytes + 4, sizeof(hi));
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32(const void* data, std::size_t size) {
  return Crc32Update(0, data, size);
}

std::uint32_t Crc32(const std::string& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

// --- writer ------------------------------------------------------------------

template <typename T>
void SnapshotSectionWriter::PutPod(T v) {
  AppendPod(bytes_, v);
}

template void SnapshotSectionWriter::PutPod(std::uint8_t);
template void SnapshotSectionWriter::PutPod(std::uint16_t);
template void SnapshotSectionWriter::PutPod(std::uint32_t);
template void SnapshotSectionWriter::PutPod(std::uint64_t);
template void SnapshotSectionWriter::PutPod(std::int64_t);

void SnapshotSectionWriter::PutF64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutPod(bits);
}

void SnapshotSectionWriter::PutString(const std::string& s) {
  CCPERF_CHECK(s.size() < (1u << 16), "snapshot string too long");
  PutPod(static_cast<std::uint16_t>(s.size()));
  bytes_.append(s);
}

template <typename T>
void SnapshotSectionWriter::PutVector(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  PutPod(static_cast<std::uint64_t>(v.size()));
  bytes_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

void SnapshotSectionWriter::PutF64Vector(const std::vector<double>& v) {
  PutVector(v);
}

void SnapshotSectionWriter::PutI64Vector(
    const std::vector<std::int64_t>& v) {
  PutVector(v);
}

void SnapshotSectionWriter::PutU8Vector(const std::vector<std::uint8_t>& v) {
  PutVector(v);
}

SnapshotWriter::SnapshotWriter(std::uint32_t app_tag) : app_tag_(app_tag) {}

SnapshotSectionWriter& SnapshotWriter::AddSection(const std::string& name) {
  CCPERF_CHECK(!name.empty() && name.size() < (1u << 16),
               "invalid snapshot section name");
  for (const auto& [existing, _] : sections_) {
    CCPERF_CHECK(existing != name, "duplicate snapshot section '", name, "'");
  }
  sections_.emplace_back(name, SnapshotSectionWriter{});
  return sections_.back().second;
}

std::string SnapshotWriter::Serialize() const {
  std::size_t size = sizeof(kMagic) + 4 * sizeof(std::uint32_t) +
                     sizeof(kFooter);
  for (const auto& [name, section] : sections_) {
    size += sizeof(std::uint16_t) + name.size() + sizeof(std::uint64_t) +
            sizeof(std::uint32_t) + section.Bytes().size();
  }
  std::string out;
  out.reserve(size);
  out.append(kMagic, sizeof(kMagic));
  const std::size_t header_start = out.size();
  AppendPod<std::uint32_t>(out, kFormatVersion);
  AppendPod<std::uint32_t>(out, app_tag_);
  AppendPod<std::uint32_t>(out, static_cast<std::uint32_t>(sections_.size()));
  AppendPod<std::uint32_t>(
      out, Crc32(out.data() + header_start, out.size() - header_start));
  for (const auto& [name, section] : sections_) {
    // The CRC covers the section's frame fields (name length, name,
    // payload size) as well as the payload, so a flipped bit anywhere in
    // the section is caught, not just inside the payload.
    const std::string& payload = section.Bytes();
    const std::size_t frame_start = out.size();
    AppendPod<std::uint16_t>(out, static_cast<std::uint16_t>(name.size()));
    out.append(name);
    AppendPod<std::uint64_t>(out, static_cast<std::uint64_t>(payload.size()));
    const std::uint32_t frame_crc =
        Crc32(out.data() + frame_start, out.size() - frame_start);
    AppendPod<std::uint32_t>(
        out, Crc32Update(frame_crc, payload.data(), payload.size()));
    out.append(payload);
  }
  out.append(kFooter, sizeof(kFooter));
  return out;
}

void WriteSnapshotFileAtomic(const std::string& path,
                             const SnapshotWriter& snapshot) {
  const std::string bytes = snapshot.Serialize();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    CCPERF_CHECK(out.good(), "cannot open snapshot tmp file '", tmp, "'");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      CCPERF_CHECK(false, "write failed for snapshot tmp file '", tmp, "'");
    }
  }
#if defined(__unix__) || defined(__APPLE__)
  // The ofstream flush above only hands the bytes to the kernel; fsync the
  // tmp file so the *contents* are durable before the rename publishes the
  // name (rename-before-fsync can leave `path` pointing at zero-length or
  // torn data after a crash).
  FsyncPath(tmp);
#endif
  // POSIX rename replaces the target atomically: a crash leaves either the
  // old snapshot or the new one, never a torn file at `path`.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    CCPERF_CHECK(false, "cannot rename snapshot '", tmp, "' over '", path,
                 "'");
  }
#if defined(__unix__) || defined(__APPLE__)
  // And fsync the containing directory so the renamed entry itself is
  // durable — without this a crash can roll the directory back to the old
  // snapshot (or to nothing, for a first write).
  FsyncParentDir(path);
#endif
}

// --- reader ------------------------------------------------------------------

void SnapshotSectionReader::Require(std::size_t bytes) const {
  CCPERF_CHECK(offset_ + bytes <= payload_.size() && offset_ + bytes >= bytes,
               "truncated snapshot section: need ", bytes, " bytes at offset ",
               offset_, " of ", payload_.size());
}

template <typename T>
T SnapshotSectionReader::TakePod() {
  static_assert(std::is_trivially_copyable_v<T>);
  Require(sizeof(T));
  T v;
  std::memcpy(&v, payload_.data() + offset_, sizeof(T));
  offset_ += sizeof(T);
  return v;
}

template std::uint8_t SnapshotSectionReader::TakePod();
template std::uint16_t SnapshotSectionReader::TakePod();
template std::uint32_t SnapshotSectionReader::TakePod();
template std::uint64_t SnapshotSectionReader::TakePod();
template std::int64_t SnapshotSectionReader::TakePod();

double SnapshotSectionReader::TakeF64() {
  const std::uint64_t bits = TakePod<std::uint64_t>();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SnapshotSectionReader::TakeString() {
  const auto size = TakePod<std::uint16_t>();
  Require(size);
  std::string s = payload_.substr(offset_, size);
  offset_ += size;
  return s;
}

template <typename T>
std::vector<T> SnapshotSectionReader::TakeVector() {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto count = TakePod<std::uint64_t>();
  CCPERF_CHECK(count <= kMaxVectorElements && count * sizeof(T) <= Remaining(),
               "corrupt snapshot: implausible vector length ", count);
  std::vector<T> v(static_cast<std::size_t>(count));
  const std::size_t bytes = v.size() * sizeof(T);
  if (bytes > 0) std::memcpy(v.data(), payload_.data() + offset_, bytes);
  offset_ += bytes;
  return v;
}

std::vector<double> SnapshotSectionReader::TakeF64Vector() {
  return TakeVector<double>();
}

std::vector<std::int64_t> SnapshotSectionReader::TakeI64Vector() {
  return TakeVector<std::int64_t>();
}

std::vector<std::uint8_t> SnapshotSectionReader::TakeU8Vector() {
  return TakeVector<std::uint8_t>();
}

void SnapshotSectionReader::ExpectEnd() const {
  CCPERF_CHECK(offset_ == payload_.size(),
               "snapshot section has ", payload_.size() - offset_,
               " unread trailing bytes (schema mismatch)");
}

bool SnapshotIntact(const std::string& bytes) {
  // The app tag lives at a fixed offset (magic, version, tag); reading it
  // back and parsing against it makes the check tag-agnostic. A flip inside
  // the tag field itself still fails the header CRC.
  if (bytes.size() < sizeof(kMagic) + 2 * sizeof(std::uint32_t)) return false;
  std::uint32_t tag = 0;
  std::memcpy(&tag, bytes.data() + sizeof(kMagic) + sizeof(std::uint32_t),
              sizeof(tag));
  try {
    (void)SnapshotReader::Parse(bytes, tag);
    return true;
  } catch (const CheckError&) {
    return false;
  }
}

SnapshotReader SnapshotReader::Parse(const std::string& bytes,
                                     std::uint32_t app_tag) {
  std::size_t offset = 0;
  const auto require = [&](std::size_t n) {
    CCPERF_CHECK(offset + n <= bytes.size() && offset + n >= n,
                 "truncated snapshot: need ", n, " bytes at offset ", offset,
                 " of ", bytes.size());
  };
  const auto take_pod = [&]<typename T>(T* out) {
    require(sizeof(T));
    std::memcpy(out, bytes.data() + offset, sizeof(T));
    offset += sizeof(T);
  };

  require(sizeof(kMagic));
  CCPERF_CHECK(std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0,
               "not a ccperf snapshot (bad magic)");
  offset += sizeof(kMagic);

  const std::size_t header_start = offset;
  std::uint32_t version = 0, tag = 0, section_count = 0, header_crc = 0;
  take_pod(&version);
  take_pod(&tag);
  take_pod(&section_count);
  const std::uint32_t header_crc_computed =
      Crc32(bytes.data() + header_start, offset - header_start);
  take_pod(&header_crc);
  CCPERF_CHECK(header_crc == header_crc_computed,
               "corrupt snapshot: header CRC mismatch");
  CCPERF_CHECK(version == kFormatVersion,
               "unsupported snapshot format version ", version);
  CCPERF_CHECK(tag == app_tag, "snapshot app tag mismatch: got ", tag,
               ", expected ", app_tag);
  CCPERF_CHECK(section_count <= kMaxSections,
               "corrupt snapshot: implausible section count ", section_count);

  SnapshotReader reader;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    const std::size_t frame_start = offset;
    std::uint16_t name_len = 0;
    take_pod(&name_len);
    require(name_len);
    std::string name = bytes.substr(offset, name_len);
    offset += name_len;
    std::uint64_t payload_size = 0;
    take_pod(&payload_size);
    const std::uint32_t frame_crc =
        Crc32(bytes.data() + frame_start, offset - frame_start);
    std::uint32_t section_crc = 0;
    take_pod(&section_crc);
    CCPERF_CHECK(payload_size <= kMaxSectionBytes,
                 "corrupt snapshot: implausible section size ", payload_size);
    const auto size = static_cast<std::size_t>(payload_size);
    require(size);
    const char* payload = bytes.data() + offset;
    offset += size;
    CCPERF_CHECK(section_crc == Crc32Update(frame_crc, payload, size),
                 "corrupt snapshot: section '", name, "' CRC mismatch");
    reader.sections_.emplace_back(std::move(name), std::string(payload, size));
  }
  require(sizeof(kFooter));
  CCPERF_CHECK(
      std::memcmp(bytes.data() + offset, kFooter, sizeof(kFooter)) == 0,
      "truncated snapshot: missing footer");
  offset += sizeof(kFooter);
  CCPERF_CHECK(offset == bytes.size(),
               "corrupt snapshot: ", bytes.size() - offset,
               " trailing bytes after footer");
  return reader;
}

SnapshotReader SnapshotReader::FromFile(const std::string& path,
                                        std::uint32_t app_tag) {
  std::ifstream in(path, std::ios::binary);
  CCPERF_CHECK(in.good(), "cannot open snapshot file '", path, "'");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  CCPERF_CHECK(!in.bad(), "read failed for snapshot file '", path, "'");
  return Parse(bytes, app_tag);
}

bool SnapshotReader::Has(const std::string& name) const {
  for (const auto& [existing, _] : sections_) {
    if (existing == name) return true;
  }
  return false;
}

SnapshotSectionReader SnapshotReader::Section(const std::string& name) const {
  for (const auto& [existing, payload] : sections_) {
    if (existing == name) return SnapshotSectionReader(payload);
  }
  CCPERF_CHECK(false, "snapshot has no section '", name, "'");
}

}  // namespace ccperf
