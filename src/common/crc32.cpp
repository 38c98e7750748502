// CRC-32 (IEEE 802.3, reflected 0xEDB88320) for common/snapshot.h.
//
// A kernel TU: it builds with CCPERF_KERNEL_FLAGS, so with native kernels
// on an x86 host that has PCLMULQDQ and SSE4.1 every run of 64 bytes or
// more, rounded down to a multiple of 16, folds by carry-less multiply
// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction", Intel, 2009). Slicing-by-8 takes the tail, short
// inputs, and every input when the ISA macros are absent. Both paths are
// exact integer arithmetic over GF(2), so they return the same bits;
// common_snapshot_test pins them against a bit-at-a-time oracle.
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/snapshot.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#include <immintrin.h>
#endif

namespace ccperf {

static_assert(std::endian::native == std::endian::little,
              "the CRC loads its input words in host byte order");

namespace {

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

// `crc` is the running register (pre- and post-inversion stay with the
// caller); returns the register after `size` more bytes.
std::uint32_t SliceBy8(std::uint32_t crc, const unsigned char* bytes,
                       std::size_t size) {
  const CrcTables& t = kCrcTables;
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
  return crc;
}

#if defined(__PCLMUL__) && defined(__SSE4_1__)

// Folding constants for P = 0x104C11DB7, as the paper's reflected variant
// needs them: k1 = x^(4*128+32) mod P and k2 = x^(4*128-32) mod P fold four
// lanes 512 bits ahead, k3 = x^(128+32) mod P and k4 = x^(128-32) mod P
// fold one lane 128 bits ahead, and k5 = x^64 mod P folds 96 bits to 64,
// each bit-reflected in 32 bits and shifted left by one. P' is P and mu' is
// floor(x^64 / P), bit-reflected in 33 bits, for the Barrett reduction.
constexpr std::uint64_t kK1 = 0x154442bd4;
constexpr std::uint64_t kK2 = 0x1c6e41596;
constexpr std::uint64_t kK3 = 0x1751997d0;
constexpr std::uint64_t kK4 = 0x0ccaa009e;
constexpr std::uint64_t kK5 = 0x163cd6124;
constexpr std::uint64_t kPoly = 0x1db710641;
constexpr std::uint64_t kMu = 0x1f7011641;

__m128i Pair(std::uint64_t low, std::uint64_t high) {
  return _mm_set_epi64x(static_cast<long long>(high),
                        static_cast<long long>(low));
}

// acc * x^d mod P, plus the next 16 bytes: the low and high halves of `acc`
// each carry-less multiply by the matching half of `k`.
__m128i Fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i low = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i high = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(low, high), next);
}

__m128i Load(const unsigned char* bytes) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes));
}

// Folds `size` bytes (a multiple of 16, at least 64) into the running
// register `crc`; same contract as SliceBy8.
std::uint32_t FoldByClmul(std::uint32_t crc, const unsigned char* bytes,
                          std::size_t size) {
  __m128i x0 = _mm_xor_si128(Load(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load(bytes + 16);
  __m128i x2 = Load(bytes + 32);
  __m128i x3 = Load(bytes + 48);
  bytes += 64;
  size -= 64;
  const __m128i k1k2 = Pair(kK1, kK2);
  for (; size >= 64; bytes += 64, size -= 64) {
    x0 = Fold(x0, k1k2, Load(bytes));
    x1 = Fold(x1, k1k2, Load(bytes + 16));
    x2 = Fold(x2, k1k2, Load(bytes + 32));
    x3 = Fold(x3, k1k2, Load(bytes + 48));
  }
  const __m128i k3k4 = Pair(kK3, kK4);
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; size >= 16; bytes += 16, size -= 16) {
    x0 = Fold(x0, k3k4, Load(bytes));
  }

  // 128 bits to 64: the low half times k4 lands on the high half, then the
  // low 32 of those 96 bits times k5 lands on the remaining 64.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), Pair(kK5, 0), 0x00));

  // Barrett reduction of those 64 bits to the 32-bit register.
  const __m128i poly_mu = Pair(kPoly, kMu);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif

}  // namespace

std::uint32_t Crc32Update(std::uint32_t crc, const void* data,
                          std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc ^= 0xFFFFFFFFu;
#if defined(__PCLMUL__) && defined(__SSE4_1__)
  if (size >= 64) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = FoldByClmul(crc, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#endif
  return SliceBy8(crc, bytes, size) ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32(const void* data, std::size_t size) {
  return Crc32Update(0, data, size);
}

std::uint32_t Crc32(const std::string& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

}  // namespace ccperf
