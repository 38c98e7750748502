// Int8 quantized GEMM path: per-channel-scale symmetric weight quantization
// hooked into the blocked GEMM's pack step, an int32-accumulate microkernel,
// and a fused dequant+bias+ReLU epilogue.
//
// Scheme (DESIGN.md §12): weights (the A operand) are quantized per output
// channel — row i gets scale s_i = max|row_i| / 127 and stores
// q = round(w / s_i) in [-127, 127]; activations (B) get one per-tensor
// scale s_b = max|B| / 127 computed fresh each call. Accumulation is exact
// int32 (no saturation, no reordering sensitivity — int32 sums are
// associative), so the quantized path is bitwise deterministic regardless
// of blocking or pool size, and GemmInt8 == NaiveGemmInt8 bitwise. The only
// approximation versus float is the quantization itself, which the
// differential tests bound per element from the scales:
//   |c_q - c_f| <= s_i/2 * sum_k|b_kj| + s_b/2 * sum_k|a_ik| + K * s_i*s_b/4.
//
// Non-finite activations saturate at the quantize boundary: NaN -> 0,
// +/-Inf -> +/-127 (and are ignored when computing the activation scale).
// This is a deliberate serving-oriented semantic — a poisoned activation
// cannot poison the whole output tile — and is pinned by tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/abft.h"

namespace ccperf {

/// Deepest K an int8 GEMM may accumulate before int32 could overflow.
/// The VNNI kernel biases activations to unsigned (q_b + 128) and corrects
/// with -128 * sum(q_a), so the worst intermediate value is
/// |sum_done(a*b) - 128 * sum_rest(a)| <= K * 127 * (127 + 128) = K*127*255;
/// that must stay below 2^31 - 1. The bound is ISA-independent on purpose
/// (every build rejects the same shapes). Table 1's deepest GEMM (fc6,
/// K = 9216) is ~7x below the bound; GemmInt8 enforces it with a hard
/// check.
inline constexpr std::int64_t kInt8MaxDepth = 2147483647LL / (127LL * 255LL);

/// A[M,K] quantized to int8 per row (per output channel) and repacked into
/// the blocked kernel's panel layout (mr-row panels, k-group-major with
/// zero-padded tails). The quantization grid is always 8-bit; the stored
/// element width is an ISA detail of quant.cpp — int8 quads feeding the
/// VNNI byte dot-product units, int16 pairs for the vpmaddwd/scalar paths.
/// The layout is an implementation detail of quant.cpp; treat instances as
/// opaque. Build once per weight matrix and reuse across GemmInt8 calls
/// while the weights are unchanged (the conv/fc layers cache it and rebuild
/// in NotifyWeightsChanged).
class QuantizedPackedA {
 public:
  // Special members are defined out-of-line in quant.cpp: an implicit
  // inline destructor would be emitted as a weak symbol by every including
  // TU *and* by the -march=native kernel TU, which is exactly the ODR /
  // ISA-leak class scripts/check_kernel_odr.sh rejects.
  QuantizedPackedA();
  ~QuantizedPackedA();
  QuantizedPackedA(const QuantizedPackedA&);
  QuantizedPackedA& operator=(const QuantizedPackedA&);
  QuantizedPackedA(QuantizedPackedA&&) noexcept;
  QuantizedPackedA& operator=(QuantizedPackedA&&) noexcept;

  [[nodiscard]] std::int64_t M() const { return m_; }
  [[nodiscard]] std::int64_t K() const { return k_; }
  /// True for a default-constructed instance holding no matrix.
  [[nodiscard]] bool Empty() const { return m_ == 0 && k_ == 0; }
  /// Per-row (per output channel) dequantization scales, size M. A row of
  /// exact zeros has scale 0 — its quantized values are all zero and the
  /// epilogue multiplies the accumulator by 0 (the scale-0 guard).
  [[nodiscard]] std::span<const float> RowScales() const { return scales_; }

 private:
  friend QuantizedPackedA QuantizePackA(std::int64_t m, std::int64_t k,
                                        std::span<const float> a);
  friend void GemmInt8(const QuantizedPackedA& a, std::int64_t n,
                       std::span<const float> b, std::span<float> c,
                       const struct Int8Epilogue& epilogue);
  friend AbftCheck GemmInt8Abft(const QuantizedPackedA& a, std::int64_t n,
                                std::span<const float> b, std::span<float> c,
                                const struct Int8Epilogue& epilogue);
  friend AbftCheck GemmInt8AbftCorruptForTest(
      const QuantizedPackedA& a, std::int64_t n, std::span<const float> b,
      std::span<float> c, const struct Int8Epilogue& epilogue,
      std::int64_t element, int bit);
  friend void FlipQuantizedBit(QuantizedPackedA& a, std::int64_t row,
                               std::int64_t k, int bit);

  std::int64_t m_ = 0;
  std::int64_t k_ = 0;
  std::vector<std::int16_t> data_;  // [k-block][mr-panel][k-group][mr][group]
  std::vector<float> scales_;       // [m]
  // Per-row sum of the quantized weights, used by the VNNI kernel's
  // unsigned-activation offset correction (exact int32; see quant.cpp).
  std::vector<std::int32_t> rowsums_;  // [m]
  // Per-K-step column sum of the quantized weights over the valid rows —
  // the ABFT reference: the exact int32 image must satisfy
  // sum_i c32_ij = sum_k colsums_[k] * qb_kj (see GemmInt8Abft).
  std::vector<std::int32_t> colsums_;  // [k]
};

/// Fused epilogue applied while the int32 accumulators are dequantized:
/// c = acc * (row_scale * b_scale) [+ bias_row] [then max(0, c)].
struct Int8Epilogue {
  /// Per-row bias (size M) added after dequantization; empty = no bias.
  std::span<const float> bias = {};
  /// Clamp negative outputs to zero (fused ReLU).
  bool relu = false;
};

/// Quantize and repack row-major A[M,K] for GemmInt8 (the weight-stationary
/// pack step; per-row symmetric scales).
QuantizedPackedA QuantizePackA(std::int64_t m, std::int64_t k,
                               std::span<const float> a);

/// Per-tensor symmetric activation scale max|b| / 127. Non-finite entries
/// are ignored; all-zero (or empty) input returns 0.
float ActivationScale(std::span<const float> b);

/// Quantize one value to the int8 grid with scale `scale` (round to
/// nearest-even, saturate to [-127, 127]; scale 0 maps everything to 0;
/// NaN -> 0, +/-Inf -> +/-127). Exposed for tests and round-trip fuzzing.
std::int8_t QuantizeToInt8(float v, float scale);

/// C[M,N] = dequant(q(A) * q(B[K,N])) with the fused epilogue, row-major,
/// C overwritten. B is quantized per call with ActivationScale. Bitwise
/// deterministic for fixed extents regardless of pool size, and bitwise
/// equal to NaiveGemmInt8 (exact int32 accumulation + a shared epilogue).
void GemmInt8(const QuantizedPackedA& a, std::int64_t n,
              std::span<const float> b, std::span<float> c,
              const Int8Epilogue& epilogue = {});

/// Convenience: quantize-pack A on the fly and run GemmInt8.
void GemmInt8(std::int64_t m, std::int64_t n, std::int64_t k,
              std::span<const float> a, std::span<const float> b,
              std::span<float> c, const Int8Epilogue& epilogue = {});

/// GemmInt8 with ABFT verification of the exact int32 accumulator image
/// before the epilogue runs: per column j, sum_i c32_ij must equal
/// sum_k colsum_k * qb_kj where colsum_k was stored at pack time and qb is
/// the call's own re-quantization of B (bitwise-identical decisions to the
/// kernel's pack). Integer equality — no tolerance, so ANY flipped bit in
/// the packed weights or the accumulator image is detected, and the fused
/// ReLU stays fused (verification happens pre-epilogue, where the checksum
/// is still linear). AbftCheck::max_ratio reports the max absolute integer
/// residual. C is fully written even on failure.
AbftCheck GemmInt8Abft(const QuantizedPackedA& a, std::int64_t n,
                       std::span<const float> b, std::span<float> c,
                       const Int8Epilogue& epilogue = {});

/// Test hook: GemmInt8Abft with bit `bit` (0..31) of int32 accumulator
/// element `element` flipped between the kernel and verification — the
/// output-corruption direction of the differential coverage sweep, which
/// has no external window in the fused path.
AbftCheck GemmInt8AbftCorruptForTest(const QuantizedPackedA& a,
                                     std::int64_t n, std::span<const float> b,
                                     std::span<float> c,
                                     const Int8Epilogue& epilogue,
                                     std::int64_t element, int bit);

/// Flip bit `bit` (0..7, the int8 grid) of the packed quantized copy of
/// element (row, k) — the SDC injection hook (tensor/corruption.h). The
/// stored row/column sums are left stale on purpose. Lives in the kernel
/// TU because only it knows the (ISA-dependent) packed layout.
void FlipQuantizedBit(QuantizedPackedA& a, std::int64_t row, std::int64_t k,
                      int bit);

/// Ground-truth int8 path (tests only; no blocking, no threading): same
/// quantization decisions, plain int32 triple loop, same epilogue helper.
/// Must agree with GemmInt8 bitwise — the differential harness's oracle.
void NaiveGemmInt8(std::int64_t m, std::int64_t n, std::int64_t k,
                   std::span<const float> a, std::span<const float> b,
                   std::span<float> c, const Int8Epilogue& epilogue = {});

}  // namespace ccperf
