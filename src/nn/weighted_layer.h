// The weighted layer: what convolution and fully-connected layers share.
#pragma once

#include "nn/layer.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/sparse.h"
#include "tensor/sparse_dispatch.h"

namespace ccperf::nn {

/// A layer whose output is weights times columns plus a bias. It owns the
/// weights, the bias and the int8 opt-in. The weights are `panels`
/// identically shaped row-major [rows, cols] matrices laid end to end (one
/// per conv group; fc has one), and panel p's rows take bias entries
/// [p * rows, (p + 1) * rows).
///
/// NotifyWeightsChanged() asks ChooseKernelFormat (tensor/sparse_dispatch.h)
/// for one format for the whole layer, from the density of all the weights
/// and the mean BSR block fill over the panels: packed dense GEMM, blocked
/// CSR, 4x4 block-CSR for block-structured pruning, or the per-channel int8
/// GEMM when quantized execution is on. It builds that format for every
/// panel and drops the others' builds; forward passes reuse the build, so
/// execution time falls with pruning and quantization, the mechanism of the
/// paper's time-accuracy trade-off.
class WeightedLayer : public Layer {
 public:
  [[nodiscard]] bool HasWeights() const final { return true; }
  [[nodiscard]] Tensor& MutableWeights() final { return weights_; }
  [[nodiscard]] const Tensor& Weights() const final { return weights_; }
  [[nodiscard]] Tensor& MutableBias() final { return bias_; }
  [[nodiscard]] const Tensor& Bias() const final { return bias_; }
  void NotifyWeightsChanged() final;
  [[nodiscard]] double WeightDensity() const final;
  void SetInt8Execution(bool enabled) final;
  [[nodiscard]] bool Int8Execution() const final { return int8_enabled_; }

  /// Packed-weight format the current forward pass dispatches to.
  [[nodiscard]] KernelFormat Format() const { return format_; }
  /// Sparse engine the format maps onto (kDense for float and int8).
  [[nodiscard]] SparseKernel Kernel() const { return ToSparseKernel(format_); }
  /// True if the current forward pass would take a sparse (CSR/BSR) path.
  [[nodiscard]] bool UsesSparsePath() const {
    return Kernel() != SparseKernel::kDense;
  }

 protected:
  /// Sizes the bias to `outputs`; the subclass shapes the weights through
  /// MutableWeights() once it has checked its parameters.
  WeightedLayer(std::string name, LayerKind kind, std::int64_t panels,
                std::int64_t outputs);

  /// Gives `copy` (a freshly constructed layer of the same shape) these
  /// weights, bias and int8 opt-in, and rebuilds its cached format.
  [[nodiscard]] std::unique_ptr<Layer> CloneWeightsInto(
      std::unique_ptr<WeightedLayer> copy) const;

  /// One PackA per panel when the format is float, else none. Weights may be
  /// edited in place without NotifyWeightsChanged, so the float pack is
  /// never cached across passes: a caller that multiplies each panel by
  /// several B packs once per pass and hands the packs to MultiplyPanel.
  [[nodiscard]] std::vector<PackedA> PackFloatPanels() const;

  /// C[rows, n] = panel `panel` of the weights times B[cols, n], plus the
  /// panel's bias on every column (fused into the int8 epilogue). The float
  /// format multiplies `float_packs[panel]`, or with no packs packs each A
  /// panel just before the microkernel reads it (Gemm).
  void MultiplyPanel(std::int64_t panel, std::span<const PackedA> float_packs,
                     std::int64_t n, std::span<const float> b,
                     std::span<float> c) const;

  /// y = W x + b for a one-panel layer: the batch-1 latency kernels (Gemv,
  /// CSR/BSR MultiplyVector, one-column int8 GEMM).
  void MultiplyVector(std::span<const float> x, std::span<float> y) const;

 private:
  [[nodiscard]] std::int64_t PanelRows() const;
  [[nodiscard]] std::int64_t PanelCols() const;
  [[nodiscard]] std::span<const float> PanelWeights(std::int64_t panel) const;
  [[nodiscard]] std::span<const float> PanelBias(std::int64_t panel) const;
  /// c[r, j] += the panel's bias of row r, for every column j < n.
  void AddBias(std::int64_t panel, std::int64_t n, std::span<float> c) const;

  std::int64_t panels_;
  Tensor weights_;
  Tensor bias_;
  bool int8_enabled_ = false;
  // Cached execution state, rebuilt by NotifyWeightsChanged(): one build
  // per panel of the dispatched format only.
  KernelFormat format_ = KernelFormat::kFloat;
  std::vector<CsrMatrix> csr_;
  std::vector<BsrMatrix> bsr_;
  std::vector<QuantizedPackedA> int8_;
};

}  // namespace ccperf::nn
