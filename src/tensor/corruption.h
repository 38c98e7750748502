// Seeded silent-data-corruption injection for the kernel layer.
//
// CorruptionInjector flips one pseudo-random bit in one pseudo-random
// element of a packed weight matrix or an output buffer — the fault model
// of the SDC subsystem (DESIGN.md §14): a particle strike or a failing DIMM
// lane poisons a value with no error signal. Everything is driven by
// common/rng.h, so every injection campaign replays exactly from its seed.
//
// Default bit range [20, 31] — sign, exponent, and the high mantissa bits.
// Flips below bit 20 perturb a float by less than ~2^-3 of its magnitude,
// which for large reductions sits below the float rounding floor the ABFT
// tolerance must admit (tensor/abft.h); such flips are undetectable by any
// checksum scheme that tolerates rounding and are also the flips that do
// not move model accuracy. The int8 paths detect any flipped bit exactly,
// so the range only matters for float targets.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.h"
#include "tensor/abft.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"

namespace ccperf {

/// Where an injection landed — enough to reproduce or report it.
struct BitFlip {
  std::int64_t row = 0;  // element row (or flat index for spans)
  std::int64_t col = 0;  // element column / K index (0 for spans)
  int bit = 0;           // flipped bit position
};

class CorruptionInjector {
 public:
  /// Bits are drawn uniformly from [bit_lo, bit_hi] (inclusive).
  explicit CorruptionInjector(std::uint64_t seed, int bit_lo = 20,
                              int bit_hi = 31);

  /// Flip one bit of one element of a row-major M x N float buffer.
  BitFlip CorruptOutput(std::span<float> c, std::int64_t m, std::int64_t n);

  /// Flip one bit of one valid packed element (never the zero padding, and
  /// never the checksum row).
  BitFlip CorruptWeights(AbftPackedA& a);

  /// Flip one bit (0..7, the int8 grid) of one valid quantized element.
  /// The stored row/column sums are intentionally left stale — corruption
  /// strikes after packing, which is exactly what GemmInt8Abft detects.
  BitFlip CorruptWeights(QuantizedPackedA& a);

 private:
  [[nodiscard]] int NextBit();

  Rng rng_;
  int bit_lo_;
  int bit_hi_;
};

}  // namespace ccperf
