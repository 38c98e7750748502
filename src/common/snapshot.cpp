#include "common/snapshot.h"

#include <algorithm>
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

// The format is little-endian, and fields and vectors are copied in host
// byte order; a big-endian host would write and read snapshots no
// little-endian host can parse, so it must not compile.
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
// Header fields the writer patches once the sections are known: the section
// count and the CRC over version, tag and count.
constexpr std::size_t kHeaderFieldsAt = sizeof(kMagic);
constexpr std::size_t kSectionCountAt =
    kHeaderFieldsAt + 2 * sizeof(std::uint32_t);
constexpr std::size_t kHeaderCrcAt = kSectionCountAt + sizeof(std::uint32_t);

// The writer refuses a vector the reader would reject.
void CheckVectorFits(std::size_t count) {
  CCPERF_CHECK(count <= kMaxVectorElements, "snapshot vector of ", count,
               " elements exceeds the container's limit of ",
               kMaxVectorElements);
}

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

void SnapshotSectionWriter::PutText(std::string_view s) {
  PutPod(static_cast<std::uint64_t>(s.size()));
  bytes_.append(s);
}

template <typename T>
void SnapshotSectionWriter::PutVector(std::span<const T> v) {
  static_assert(std::is_trivially_copyable_v<T>);
  CheckVectorFits(v.size());
  PutPod(static_cast<std::uint64_t>(v.size()));
  bytes_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

void SnapshotSectionWriter::PutF32Vector(std::span<const float> v) {
  PutVector(v);
}

void SnapshotSectionWriter::PutF64Vector(const std::vector<double>& v) {
  PutVector(std::span(v));
}

void SnapshotSectionWriter::PutI64Vector(
    const std::vector<std::int64_t>& v) {
  PutVector(std::span(v));
}

void SnapshotSectionWriter::PutI64VectorFrom32(
    const std::vector<std::int32_t>& v) {
  CheckVectorFits(v.size());
  PutPod(static_cast<std::uint64_t>(v.size()));
  // Widen a cache-resident block at a time, so the buffer is written once.
  std::int64_t block[512];
  for (std::size_t at = 0; at < v.size(); at += std::size(block)) {
    const std::size_t n = std::min(v.size() - at, std::size(block));
    std::copy_n(v.begin() + static_cast<std::ptrdiff_t>(at), n, block);
    bytes_.append(reinterpret_cast<const char*>(block),
                  n * sizeof(std::int64_t));
  }
}

void SnapshotSectionWriter::PutU8Vector(const std::vector<std::uint8_t>& v) {
  PutVector(std::span(v));
}

SnapshotWriter::SnapshotWriter(std::uint32_t app_tag) {
  std::string& out = out_.bytes_;
  out.append(kMagic, sizeof(kMagic));
  AppendPod<std::uint32_t>(out, kFormatVersion);
  AppendPod<std::uint32_t>(out, app_tag);
  AppendPod<std::uint32_t>(out, 0);  // section count, patched by Serialize
  AppendPod<std::uint32_t>(out, 0);  // header CRC, patched by Serialize
}

void SnapshotWriter::Reserve(std::size_t bytes) {
  out_.bytes_.reserve(bytes);
}

SnapshotSectionWriter& SnapshotWriter::AddSection(const std::string& name) {
  CCPERF_CHECK(!name.empty() && name.size() < (1u << 16),
               "invalid snapshot section name");
  for (const std::string& existing : names_) {
    CCPERF_CHECK(existing != name, "duplicate snapshot section '", name, "'");
  }
  CloseSection();
  names_.push_back(name);
  std::string& out = out_.bytes_;
  frame_at_ = out.size();
  AppendPod<std::uint16_t>(out, static_cast<std::uint16_t>(name.size()));
  out.append(name);
  AppendPod<std::uint64_t>(out, 0);  // payload size, patched on close
  AppendPod<std::uint32_t>(out, 0);  // section CRC, patched on close
  payload_at_ = out.size();
  return out_;
}

void SnapshotWriter::CloseSection() {
  if (names_.empty()) return;  // no section opened yet
  std::string& out = out_.bytes_;
  const auto payload_size =
      static_cast<std::uint64_t>(out.size() - payload_at_);
  CCPERF_CHECK(payload_size <= kMaxSectionBytes, "snapshot section '",
               names_.back(), "' of ", payload_size,
               " bytes exceeds the container's limit of ", kMaxSectionBytes);
  const std::size_t crc_at = payload_at_ - sizeof(std::uint32_t);
  const std::size_t size_at = crc_at - sizeof(std::uint64_t);
  std::memcpy(out.data() + size_at, &payload_size, sizeof(payload_size));
  // The CRC covers the section's frame fields (name length, name, payload
  // size) as well as the payload, so a flipped bit anywhere in the section
  // is caught, not just inside the payload.
  const std::uint32_t frame_crc =
      Crc32(out.data() + frame_at_, crc_at - frame_at_);
  const std::uint32_t section_crc = Crc32Update(
      frame_crc, out.data() + payload_at_, out.size() - payload_at_);
  std::memcpy(out.data() + crc_at, &section_crc, sizeof(section_crc));
}

std::string SnapshotWriter::Serialize() && {
  CloseSection();
  std::string& out = out_.bytes_;
  const auto count = static_cast<std::uint32_t>(names_.size());
  std::memcpy(out.data() + kSectionCountAt, &count, sizeof(count));
  const std::uint32_t header_crc =
      Crc32(out.data() + kHeaderFieldsAt, kHeaderCrcAt - kHeaderFieldsAt);
  std::memcpy(out.data() + kHeaderCrcAt, &header_crc, sizeof(header_crc));
  out.append(kFooter, sizeof(kFooter));
  return std::move(out);
}

std::string SnapshotWriter::Serialize() const& {
  return SnapshotWriter(*this).Serialize();
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
  std::string s(payload_.substr(offset_, size));
  offset_ += size;
  return s;
}

std::string SnapshotSectionReader::TakeText() {
  const auto size = TakePod<std::uint64_t>();
  CCPERF_CHECK(size <= Remaining(), "corrupt snapshot: text of ", size,
               " bytes overruns its section");
  std::string s(payload_.substr(offset_, static_cast<std::size_t>(size)));
  offset_ += static_cast<std::size_t>(size);
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

std::vector<float> SnapshotSectionReader::TakeF32Vector() {
  return TakeVector<float>();
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
    const std::string_view name(bytes.data() + offset, name_len);
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
                 "corrupt snapshot: section '", std::string(name),
                 "' CRC mismatch");
    reader.sections_.push_back({name, std::string_view(payload, size)});
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

SnapshotReader SnapshotReader::Parse(std::string&& bytes,
                                     std::uint32_t app_tag) {
  auto kept = std::make_unique<const std::string>(std::move(bytes));
  SnapshotReader reader = Parse(*kept, app_tag);
  reader.kept_ = std::move(kept);
  return reader;
}

SnapshotReader SnapshotReader::FromFile(const std::string& path,
                                        std::uint32_t app_tag) {
  std::ifstream in(path, std::ios::binary);
  CCPERF_CHECK(in.good(), "cannot open snapshot file '", path, "'");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  CCPERF_CHECK(!in.bad(), "read failed for snapshot file '", path, "'");
  return Parse(std::move(bytes), app_tag);
}

bool SnapshotReader::Has(const std::string& name) const {
  for (const SectionView& section : sections_) {
    if (section.name == name) return true;
  }
  return false;
}

SnapshotSectionReader SnapshotReader::Section(const std::string& name) const {
  for (const SectionView& section : sections_) {
    if (section.name == name) return SnapshotSectionReader(section.payload);
  }
  CCPERF_CHECK(false, "snapshot has no section '", name, "'");
}

}  // namespace ccperf
