// Density -> kernel dispatch policy: nn::WeightedLayer runs it on its
// weights, and the cloud time model mirrors it (AnalyticQuantTimeFactor).
//
// The crossover densities below are calibrated against the packed dense
// GEMM on the conv2 shape (256 x 1200 weights x 729 pixels) by
// bench_ablation_sparse_vs_dense; the sweep is checked into
// bench_results/sparse_crossover.csv and can be regenerated with
// scripts/calibrate_sparse_threshold.sh. Re-run the calibration whenever
// either kernel family changes materially.
#pragma once

namespace ccperf {

/// Which multiply engine a weight matrix should execute on.
enum class SparseKernel {
  kDense,  // blocked+packed GEMM (gemm.cpp)
  kCsr,    // row-panel CSR x packed-B SpMM (sparse_kernels.cpp)
  kBsr,    // 4x4 block-CSR register-tiled SpMM (sparse_kernels.cpp)
};

/// Weight density below which the blocked CSR kernel beats the packed dense
/// GEMM. Measured crossovers on the conv2 shape (single AVX-512 core):
/// element-sparse 0.20, filter-sparse 0.21, block-sparse 0.17 — the packed
/// dense GEMM runs near machine peak, so CSR's ~3 cycles/nnz only pays off
/// once four in five weights are gone.
inline constexpr double kCsrCrossoverDensity = 0.20;

/// Stored-block density (density / fill = fraction of 4x4 blocks kept)
/// below which the BSR kernel beats the packed dense GEMM. BSR's cost
/// scales with stored blocks, not nonzeros, so the crossover is expressed
/// in block terms: measured 0.58 on block-aligned sparsity (fill = 1.0),
/// held back to 0.55. BSR reuses each packed-B row across its 4-row block
/// (1:4 load:FMA), which is why it crosses over at ~2.5x the CSR density.
inline constexpr double kBsrCrossoverDensity = 0.55;

/// Minimum fraction of nonzeros inside stored 4x4 blocks for BSR to beat
/// CSR. At full fill BSR spends ~0.5x CSR's time per stored value
/// (measured 5.6 ms vs 11.0 ms on the dense conv2 shape), so the break-even
/// fill is ~0.5: aligned-group filter pruning keeps fill at 1.0, while
/// element-magnitude pruning drives fill toward the raw density and
/// per-filter pruning bottoms out near 1/kBlockRows, where the padded
/// multiplies erase BSR's advantage.
inline constexpr double kBsrMinBlockFill = 0.5;

[[nodiscard]] constexpr const char* ToString(SparseKernel k) {
  switch (k) {
    case SparseKernel::kDense: return "dense";
    case SparseKernel::kCsr: return "csr";
    case SparseKernel::kBsr: return "bsr";
  }
  return "?";
}

/// Pick the fastest kernel for a weight matrix with the given nonzero
/// density and BSR block fill (nnz / stored-block capacity; measure with
/// BsrMatrix::DenseBlockFill before building anything). BSR work is
/// proportional to stored blocks, so its crossover test uses the
/// stored-block density (density / fill); fill itself gates BSR vs CSR.
[[nodiscard]] constexpr SparseKernel ChooseSparseKernel(double density,
                                                        double bsr_fill) {
  const double block_density = bsr_fill > 0.0 ? density / bsr_fill : 1.0;
  if (bsr_fill >= kBsrMinBlockFill && block_density < kBsrCrossoverDensity) {
    return SparseKernel::kBsr;
  }
  if (density < kCsrCrossoverDensity) return SparseKernel::kCsr;
  return SparseKernel::kDense;
}

/// Analytic time factor used by the cloud variant-perf model: the dispatch
/// plateau means a layer's prunable time only starts shrinking once its
/// effective density drops below the sparse crossover; above it the dense
/// kernel runs and pruning buys nothing. The serving stack prunes filters
/// in block-aligned groups (fill ~ 1.0), so the relevant crossover is
/// BSR's. Below it the factor is the density itself — per-nnz kernel
/// efficiency is already folded into each profile's calibrated
/// prunable_fraction.
[[nodiscard]] constexpr double AnalyticSparseTimeFactor(double density) {
  return density < kBsrCrossoverDensity ? density : 1.0;
}

/// Which packed-weight format a weighted layer executes on: the float
/// formats above, or the int8 quantized path (tensor/quant.h). Quantized
/// execution is opt-in per network (Layer::SetInt8Execution) because it
/// trades a bounded accuracy loss for speed — the second accuracy knob of
/// the cost-accuracy frontier, next to pruning.
enum class KernelFormat {
  kFloat,  // blocked+packed float GEMM (gemm.cpp)
  kCsr,    // row-panel CSR x packed-B SpMM (sparse_kernels.cpp)
  kBsr,    // 4x4 block-CSR register-tiled SpMM (sparse_kernels.cpp)
  kInt8,   // per-channel int8 GEMM + fused dequant epilogue (quant.cpp)
};

[[nodiscard]] constexpr const char* ToString(KernelFormat f) {
  switch (f) {
    case KernelFormat::kFloat: return "float";
    case KernelFormat::kCsr: return "csr";
    case KernelFormat::kBsr: return "bsr";
    case KernelFormat::kInt8: return "int8";
  }
  return "?";
}

/// Seconds-per-image factor of the int8 path relative to the packed float
/// GEMM on dense-dispatched layers. Measured on the Table-1 conv shapes by
/// bench_ext_gemm_speedup (bench_results/ext_gemm_speedup.csv): the VNNI
/// byte-dot kernel sustains 2-2.8x the float GFLOP/s with the activation
/// scale scan and quantize-pack folded in, so the model holds a
/// conservative 0.45.
inline constexpr double kInt8TimeFactor = 0.45;

/// Three-way dispatch: the sparse crossovers still rule when pruning has
/// made the sparse kernel genuinely cheaper than quantized-dense (analytic
/// sparse factor = density beats kInt8TimeFactor); otherwise an
/// int8-enabled layer runs quantized. Mirrors ChooseSparseKernel when
/// int8 is off.
[[nodiscard]] constexpr KernelFormat ChooseKernelFormat(double density,
                                                        double bsr_fill,
                                                        bool int8_enabled) {
  const SparseKernel sparse = ChooseSparseKernel(density, bsr_fill);
  if (int8_enabled &&
      (sparse == SparseKernel::kDense || density >= kInt8TimeFactor)) {
    return KernelFormat::kInt8;
  }
  switch (sparse) {
    case SparseKernel::kDense: return KernelFormat::kFloat;
    case SparseKernel::kCsr: return KernelFormat::kCsr;
    case SparseKernel::kBsr: return KernelFormat::kBsr;
  }
  return KernelFormat::kFloat;
}

/// Sparse kernel a format maps onto for float execution (int8 runs its own
/// dense-shaped kernel).
[[nodiscard]] constexpr SparseKernel ToSparseKernel(KernelFormat f) {
  switch (f) {
    case KernelFormat::kCsr: return SparseKernel::kCsr;
    case KernelFormat::kBsr: return SparseKernel::kBsr;
    case KernelFormat::kFloat:
    case KernelFormat::kInt8: return SparseKernel::kDense;
  }
  return SparseKernel::kDense;
}

/// AnalyticSparseTimeFactor extended with the int8 knob: an int8-enabled
/// layer's time factor is the better of the sparse path and the quantized
/// dense path — exactly the ChooseKernelFormat policy above.
[[nodiscard]] constexpr double AnalyticQuantTimeFactor(double density,
                                                       bool int8_enabled) {
  const double sparse = AnalyticSparseTimeFactor(density);
  if (!int8_enabled) return sparse;
  return sparse < kInt8TimeFactor ? sparse : kInt8TimeFactor;
}

}  // namespace ccperf
