// Dense matrix multiply kernels.
//
// Gemm is the public entry point: a blocked, packed, register-tiled kernel
// parallelized over row panels via the global thread pool. PackA lets
// weight-stationary callers (a conv layer's groups) amortize the A-side
// packing across many multiplies. GemmReference is the previous row-panel
// kernel, kept as the fast differential-testing oracle; NaiveGemm is the
// O(MNK) triple loop used as the ground-truth reference in unit tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ccperf {

/// A[M,K] repacked into the blocked kernel's panel layout (mr-row panels,
/// k-major within a panel, zero-padded tail rows). The layout is an
/// implementation detail of gemm.cpp; treat instances as opaque. Build once
/// with PackA and reuse across GemmPacked calls while the matrix is
/// unchanged. A float nn::WeightedLayer packs its panels once per forward
/// pass (PackFloatPanels): a conv reuses each group's pack for every image
/// of the batch, while the batched fc multiplies each weight once per call,
/// so it passes no pack and its multiply runs Gemm. No layer keeps a pack
/// across passes.
class PackedA {
 public:
  PackedA() = default;

  [[nodiscard]] std::int64_t M() const { return m_; }
  [[nodiscard]] std::int64_t K() const { return k_; }
  /// True for a default-constructed instance holding no matrix.
  [[nodiscard]] bool Empty() const { return m_ == 0 && k_ == 0; }

 private:
  friend PackedA PackA(std::int64_t m, std::int64_t k,
                       std::span<const float> a);
  friend void GemmPacked(const PackedA& a, std::int64_t n,
                         std::span<const float> b, std::span<float> c);
  friend void FlipPackedBit(PackedA& a, std::int64_t row, std::int64_t k,
                            int bit);

  std::int64_t m_ = 0;
  std::int64_t k_ = 0;
  std::vector<float> data_;  // [k-block][mr-panel][k-major, mr-contiguous]
};

/// Repack row-major A[M,K] for GemmPacked.
PackedA PackA(std::int64_t m, std::int64_t k, std::span<const float> a);

/// C[M,N] = packed_A * B[K,N], row-major, C overwritten. Bitwise
/// deterministic for fixed extents regardless of pool size: every C element
/// is accumulated in a fixed k-order by exactly one task.
void GemmPacked(const PackedA& a, std::int64_t n, std::span<const float> b,
                std::span<float> c);

/// C[M,N] = A[M,K] * B[K,N], row-major, C overwritten. Runs GemmPacked's
/// block loop, packing each A panel into a task-local buffer just before
/// the microkernel reads it: bitwise GemmPacked(PackA(m, k, a), ...), with
/// no M*K allocation. Use PackA + GemmPacked when one A meets several B.
void Gemm(std::int64_t m, std::int64_t n, std::int64_t k,
          std::span<const float> a, std::span<const float> b,
          std::span<float> c);

/// The pre-blocking row-panel kernel, kept verbatim as a second oracle for
/// the differential tests and as the baseline in bench_kernels. Note: it
/// skips A entries that compare equal to 0.0f (including -0.0f), so with
/// non-finite B values it returns 0 where IEEE arithmetic (and the packed
/// kernel, which multiplies densely) propagates NaN/Inf.
void GemmReference(std::int64_t m, std::int64_t n, std::int64_t k,
                   std::span<const float> a, std::span<const float> b,
                   std::span<float> c);

/// Ground-truth implementation (tests only; no blocking, no threading).
void NaiveGemm(std::int64_t m, std::int64_t n, std::int64_t k,
               std::span<const float> a, std::span<const float> b,
               std::span<float> c);

/// Flip bit `bit` (0..31) of the packed copy of element (row, k) — the
/// silent-data-corruption injection hook (tensor/corruption.h). Lives in
/// the kernel TU because only it knows the panel layout; (row, k) must be
/// a valid element (never the zero padding).
void FlipPackedBit(PackedA& a, std::int64_t row, std::int64_t k, int bit);

/// y[M] = A[M,K] * x[K] (y overwritten; add bias separately). Each y[i] is
/// one ascending-k sum from 0.0f, so y is bitwise independent of the pool
/// size and of the row grouping.
void Gemv(std::int64_t m, std::int64_t k, std::span<const float> a,
          std::span<const float> x, std::span<float> y);

}  // namespace ccperf
