// Crash-consistent binary snapshot format: the durability substrate of the
// checkpoint/restore subsystem (spot-preemption-tolerant serving and
// resumable simulation in src/cloud).
//
// A snapshot is a framed container of named sections:
//
//   header : "CCSN" magic, u32 format version, u32 app tag, u32 section
//            count, u32 CRC32 of the header fields
//   section: u16 name length, name bytes, u64 payload size, u32 CRC32 of
//            the frame fields + payload, payload bytes
//   footer : "SNEN" magic
//
// Every multi-byte field is little-endian (fields are copied in host order,
// so the library builds only on little-endian hosts); doubles are stored as
// their raw IEEE-754 bit pattern so a restored state is *bitwise* identical
// to the captured one. The reader validates magic, version, app tag, bounds
// and per-section CRCs and throws CheckError on any violation — a corrupted
// or truncated snapshot can never restore garbage state.
//
// SnapshotWriter builds the container in one buffer, in wire order: each
// section's frame goes out with placeholder size and CRC, which are patched
// when the next AddSection or Serialize closes it, so every byte is written
// once. Hence the one contract on writers: the SnapshotSectionWriter& that
// AddSection returns writes to the open section, so it is valid only until
// the next AddSection (puts through it after that land in the new one).
//
// SnapshotReader validates the bytes in place and keeps each section as a
// view into them; a SnapshotSectionReader views one section, and only its
// Take* calls copy bytes out. Hence the one contract on readers: a reader
// parsed from an lvalue string views that string, which must outlive the
// reader and every section reader taken from it; a reader parsed from an
// rvalue string, or read by FromFile, keeps the bytes itself, so only the
// reader must outlive its section readers.
//
// The writer refuses what the reader would reject (a vector of more than
// 2^28 elements, a section of more than 2^31 bytes).
//
// WriteSnapshotFileAtomic writes to "<path>.tmp" and renames over <path>,
// so a crash mid-checkpoint leaves the previous good snapshot intact.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ccperf {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `size` bytes. A kernel TU
/// (common/crc32.cpp) folds long inputs by carry-less multiply where the
/// ISA has it; every path returns the same bits.
std::uint32_t Crc32(const void* data, std::size_t size);
std::uint32_t Crc32(const std::string& bytes);
/// Extends `crc`, the CRC-32 of some bytes, to the CRC-32 of those bytes
/// followed by `size` more: Crc32Update(Crc32(a), b) == Crc32(a + b), and
/// Crc32Update(0, b) == Crc32(b).
std::uint32_t Crc32Update(std::uint32_t crc, const void* data,
                          std::size_t size);

/// Structural integrity verdict for snapshot bytes of ANY app tag: magic,
/// version, header CRC, framing bounds, every section CRC and the footer.
/// Returns false instead of throwing — integrity scrubs (e.g.
/// SnapshotVault::VerifyAllSections) want a verdict per copy, not an
/// exception on the first corrupted mirror. Does not validate section
/// *contents*; that stays with the app-level Restore path.
[[nodiscard]] bool SnapshotIntact(const std::string& bytes);

/// Appends typed values to the open section of a SnapshotWriter; obtained
/// only from SnapshotWriter::AddSection, and valid until the next one.
class SnapshotSectionWriter {
 public:
  void PutU8(std::uint8_t v) { PutPod(v); }
  void PutU32(std::uint32_t v) { PutPod(v); }
  void PutU64(std::uint64_t v) { PutPod(v); }
  void PutI64(std::int64_t v) { PutPod(v); }
  void PutBool(bool v) { PutPod(static_cast<std::uint8_t>(v ? 1 : 0)); }
  /// Raw bit pattern — round-trips NaN/inf/-0.0 exactly.
  void PutF64(double v);
  /// A u16 length and the bytes; throws from 64 KiB up.
  void PutString(const std::string& s);
  /// A u64 length and the bytes: text PutString's u16 length cannot carry.
  void PutText(std::string_view s);
  // Vectors are a u64 element count followed by the elements, written in
  // one append.
  void PutF32Vector(std::span<const float> v);
  void PutF64Vector(const std::vector<double>& v);
  void PutI64Vector(const std::vector<std::int64_t>& v);
  /// The bytes of PutI64Vector of `v` widened to int64, with no int64 copy
  /// of the vector.
  void PutI64VectorFrom32(const std::vector<std::int32_t>& v);
  void PutU8Vector(const std::vector<std::uint8_t>& v);

 private:
  friend class SnapshotWriter;
  SnapshotSectionWriter() = default;

  template <typename T>
  void PutPod(T v);
  template <typename T>
  void PutVector(std::span<const T> v);

  std::string bytes_;  // the whole container so far
};

/// Builds the framed container, one section after another.
class SnapshotWriter {
 public:
  /// `app_tag` names the snapshot's producer (e.g. 'FSRV'); readers reject
  /// snapshots written by a different subsystem.
  explicit SnapshotWriter(std::uint32_t app_tag);

  /// Room for `bytes` of container, so a writer that knows its size never
  /// regrows its buffer.
  void Reserve(std::size_t bytes);

  /// Closes the open section and starts a new one; names must be unique
  /// within one snapshot. The reference is valid until the next AddSection.
  SnapshotSectionWriter& AddSection(const std::string& name);

  /// The container (header + CRC'd sections + footer). The rvalue overload
  /// consumes the writer and returns its buffer; the const one serializes
  /// a copy.
  [[nodiscard]] std::string Serialize() &&;
  [[nodiscard]] std::string Serialize() const&;

 private:
  void CloseSection();

  SnapshotSectionWriter out_;
  std::vector<std::string> names_;
  std::size_t frame_at_ = 0;    // open section's frame offset in out_
  std::size_t payload_at_ = 0;  // ... and its payload's
};

/// Atomically persist a snapshot: write "<path>.tmp", flush + fsync it,
/// rename over `path`, then fsync the containing directory so the renamed
/// entry survives a crash (POSIX; the fsyncs are no-ops elsewhere). Throws
/// CheckError on any I/O failure, naming the offending path.
void WriteSnapshotFileAtomic(const std::string& path,
                             const SnapshotWriter& snapshot);

/// Bounds-checked typed reads from one section's payload. Reading past the
/// end throws CheckError.
class SnapshotSectionReader {
 public:
  /// Views `payload`, which must outlive the reader.
  explicit SnapshotSectionReader(std::string_view payload)
      : payload_(payload) {}

  std::uint8_t TakeU8() { return TakePod<std::uint8_t>(); }
  std::uint32_t TakeU32() { return TakePod<std::uint32_t>(); }
  std::uint64_t TakeU64() { return TakePod<std::uint64_t>(); }
  std::int64_t TakeI64() { return TakePod<std::int64_t>(); }
  bool TakeBool() { return TakePod<std::uint8_t>() != 0; }
  double TakeF64();
  std::string TakeString();
  std::string TakeText();
  std::vector<float> TakeF32Vector();
  std::vector<double> TakeF64Vector();
  std::vector<std::int64_t> TakeI64Vector();
  std::vector<std::uint8_t> TakeU8Vector();

  [[nodiscard]] std::size_t Remaining() const {
    return payload_.size() - offset_;
  }
  /// Throws unless every payload byte has been consumed — catches schema
  /// drift between writer and reader.
  void ExpectEnd() const;

 private:
  template <typename T>
  T TakePod();
  template <typename T>
  std::vector<T> TakeVector();
  void Require(std::size_t bytes) const;

  std::string_view payload_;
  std::size_t offset_ = 0;
};

/// Parses and validates a serialized snapshot.
class SnapshotReader {
 public:
  /// Throws CheckError on bad magic/version/tag, truncation, or CRC
  /// mismatch in any section. Copies nothing: the reader views `bytes`,
  /// which must outlive it and its section readers.
  static SnapshotReader Parse(const std::string& bytes,
                              std::uint32_t app_tag);
  /// As above, but the reader keeps `bytes`.
  static SnapshotReader Parse(std::string&& bytes, std::uint32_t app_tag);
  /// Load + parse a snapshot file into a reader that keeps its bytes;
  /// missing/unreadable paths throw CheckError naming the path.
  static SnapshotReader FromFile(const std::string& path,
                                 std::uint32_t app_tag);

  [[nodiscard]] bool Has(const std::string& name) const;
  /// Section payload by name, as a view into the parsed bytes; throws
  /// CheckError when absent.
  [[nodiscard]] SnapshotSectionReader Section(const std::string& name) const;
  [[nodiscard]] std::size_t SectionCount() const { return sections_.size(); }

 private:
  struct SectionView {
    std::string_view name;
    std::string_view payload;
  };

  SnapshotReader() = default;
  // The bytes a Parse(std::string&&) or FromFile reader keeps, on the heap
  // so that moving the reader leaves the views valid; null after
  // Parse(const std::string&).
  std::unique_ptr<const std::string> kept_;
  std::vector<SectionView> sections_;
};

}  // namespace ccperf
