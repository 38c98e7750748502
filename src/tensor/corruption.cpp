#include "tensor/corruption.h"

#include <cstring>

#include "common/check.h"

namespace ccperf {

namespace {

void FlipFloatBit(float& value, int bit) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= 1u << static_cast<unsigned>(bit);
  std::memcpy(&value, &bits, sizeof(bits));
}

}  // namespace

CorruptionInjector::CorruptionInjector(std::uint64_t seed, int bit_lo,
                                       int bit_hi)
    : rng_(seed), bit_lo_(bit_lo), bit_hi_(bit_hi) {
  CCPERF_CHECK(bit_lo >= 0 && bit_hi <= 31 && bit_lo <= bit_hi,
               "bit range must satisfy 0 <= lo <= hi <= 31, got [", bit_lo,
               ", ", bit_hi, "]");
}

int CorruptionInjector::NextBit() {
  return bit_lo_ + static_cast<int>(rng_.NextIndex(
                       static_cast<std::uint64_t>(bit_hi_ - bit_lo_ + 1)));
}

BitFlip CorruptionInjector::CorruptOutput(std::span<float> c, std::int64_t m,
                                          std::int64_t n) {
  CCPERF_CHECK(m >= 1 && n >= 1, "need a non-empty output to corrupt");
  CCPERF_CHECK(static_cast<std::int64_t>(c.size()) == m * n,
               "C size mismatch");
  BitFlip flip;
  flip.row = static_cast<std::int64_t>(
      rng_.NextIndex(static_cast<std::uint64_t>(m)));
  flip.col = static_cast<std::int64_t>(
      rng_.NextIndex(static_cast<std::uint64_t>(n)));
  flip.bit = NextBit();
  FlipFloatBit(c[static_cast<std::size_t>(flip.row * n + flip.col)], flip.bit);
  return flip;
}

BitFlip CorruptionInjector::CorruptWeights(AbftPackedA& a) {
  CCPERF_CHECK(a.M() >= 1 && a.K() >= 1, "need a non-empty pack to corrupt");
  // Strike only the weight rows, never row M (the checksum row): corrupting
  // the checksum itself is also detected, but it is the less interesting
  // direction and would double-count in coverage sweeps.
  BitFlip flip;
  flip.row = static_cast<std::int64_t>(
      rng_.NextIndex(static_cast<std::uint64_t>(a.M())));
  flip.col = static_cast<std::int64_t>(
      rng_.NextIndex(static_cast<std::uint64_t>(a.K())));
  flip.bit = NextBit();
  FlipPackedBit(a.aug_, flip.row, flip.col, flip.bit);
  return flip;
}

BitFlip CorruptionInjector::CorruptWeights(QuantizedPackedA& a) {
  CCPERF_CHECK(a.M() >= 1 && a.K() >= 1, "need a non-empty pack to corrupt");
  BitFlip flip;
  flip.row = static_cast<std::int64_t>(
      rng_.NextIndex(static_cast<std::uint64_t>(a.M())));
  flip.col = static_cast<std::int64_t>(
      rng_.NextIndex(static_cast<std::uint64_t>(a.K())));
  flip.bit = static_cast<int>(rng_.NextIndex(8));
  FlipQuantizedBit(a, flip.row, flip.col, flip.bit);
  return flip;
}

}  // namespace ccperf
