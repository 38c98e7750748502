#include "nn/weighted_layer.h"

#include <utility>

namespace ccperf::nn {

WeightedLayer::WeightedLayer(std::string name, LayerKind kind,
                             std::int64_t panels, std::int64_t outputs)
    : Layer(std::move(name), kind), panels_(panels), bias_(Shape{outputs}) {}

std::unique_ptr<Layer> WeightedLayer::CloneWeightsInto(
    std::unique_ptr<WeightedLayer> copy) const {
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  copy->int8_enabled_ = int8_enabled_;
  copy->NotifyWeightsChanged();
  return copy;
}

void WeightedLayer::SetInt8Execution(bool enabled) {
  if (int8_enabled_ == enabled) return;
  int8_enabled_ = enabled;
  NotifyWeightsChanged();  // re-dispatch and (re)build the cached format
}

void WeightedLayer::NotifyWeightsChanged() {
  const std::int64_t rows = PanelRows();
  const std::int64_t cols = PanelCols();
  // One kernel for the whole layer: density over all weights, block fill
  // averaged over the (identically shaped) panels.
  double fill = 0.0;
  for (std::int64_t p = 0; p < panels_; ++p) {
    fill += BsrMatrix::DenseBlockFill(rows, cols, PanelWeights(p));
  }
  fill /= static_cast<double>(panels_);
  format_ = ChooseKernelFormat(WeightDensity(), fill, int8_enabled_);

  // Only the dispatched format is built; stale builds for the other formats
  // are dropped so a weight edit can never execute against old weights.
  csr_.clear();
  bsr_.clear();
  int8_.clear();
  for (std::int64_t p = 0; p < panels_; ++p) {
    switch (format_) {
      case KernelFormat::kCsr:
        csr_.push_back(CsrMatrix::FromDense(rows, cols, PanelWeights(p)));
        break;
      case KernelFormat::kBsr:
        bsr_.push_back(BsrMatrix::FromDense(rows, cols, PanelWeights(p)));
        break;
      case KernelFormat::kInt8:
        int8_.push_back(QuantizePackA(rows, cols, PanelWeights(p)));
        break;
      case KernelFormat::kFloat:
        return;  // packed per pass (PackFloatPanels)
    }
  }
}

double WeightedLayer::WeightDensity() const {
  return 1.0 - weights_.ZeroFraction();
}

std::vector<PackedA> WeightedLayer::PackFloatPanels() const {
  std::vector<PackedA> packs;
  if (format_ != KernelFormat::kFloat) return packs;
  packs.reserve(static_cast<std::size_t>(panels_));
  for (std::int64_t p = 0; p < panels_; ++p) {
    packs.push_back(PackA(PanelRows(), PanelCols(), PanelWeights(p)));
  }
  return packs;
}

void WeightedLayer::MultiplyPanel(std::int64_t panel,
                                  std::span<const PackedA> float_packs,
                                  std::int64_t n, std::span<const float> b,
                                  std::span<float> c) const {
  const auto p = static_cast<std::size_t>(panel);
  switch (format_) {
    case KernelFormat::kCsr:
      csr_[p].MultiplyDense(b, n, c);
      break;
    case KernelFormat::kBsr:
      bsr_[p].MultiplyDense(b, n, c);
      break;
    case KernelFormat::kFloat:
      if (float_packs.empty()) {
        Gemm(PanelRows(), n, PanelCols(), PanelWeights(panel), b, c);
      } else {
        GemmPacked(float_packs[p], n, b, c);
      }
      break;
    case KernelFormat::kInt8:
      // Bias rides the fused dequant epilogue: adding it again, or even
      // adding 0.0f, would move bits (-0.0 + 0.0 is +0.0).
      GemmInt8(int8_[p], n, b, c, {.bias = PanelBias(panel)});
      return;
  }
  AddBias(panel, n, c);
}

void WeightedLayer::MultiplyVector(std::span<const float> x,
                                   std::span<float> y) const {
  switch (format_) {
    case KernelFormat::kCsr:
      csr_[0].MultiplyVector(x, y);
      break;
    case KernelFormat::kBsr:
      bsr_[0].MultiplyVector(x, y);
      break;
    case KernelFormat::kFloat:
      Gemv(PanelRows(), PanelCols(), weights_.Data(), x, y);
      break;
    case KernelFormat::kInt8:
      MultiplyPanel(0, {}, 1, x, y);  // the one-column GEMM, bias fused
      return;
  }
  AddBias(0, 1, y);
}

std::int64_t WeightedLayer::PanelRows() const {
  return bias_.NumElements() / panels_;
}

std::int64_t WeightedLayer::PanelCols() const {
  return weights_.NumElements() / bias_.NumElements();
}

std::span<const float> WeightedLayer::PanelWeights(std::int64_t panel) const {
  const std::int64_t size = PanelRows() * PanelCols();
  return weights_.Data().subspan(static_cast<std::size_t>(panel * size),
                                 static_cast<std::size_t>(size));
}

std::span<const float> WeightedLayer::PanelBias(std::int64_t panel) const {
  const std::int64_t rows = PanelRows();
  return bias_.Data().subspan(static_cast<std::size_t>(panel * rows),
                              static_cast<std::size_t>(rows));
}

void WeightedLayer::AddBias(std::int64_t panel, std::int64_t n,
                            std::span<float> c) const {
  const std::span<const float> bias = PanelBias(panel);
  for (std::size_t r = 0; r < bias.size(); ++r) {
    const float v = bias[r];
    float* row = c.data() + static_cast<std::int64_t>(r) * n;
    for (std::int64_t j = 0; j < n; ++j) row[j] += v;
  }
}

}  // namespace ccperf::nn
