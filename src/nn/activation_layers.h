// Weightless element-wise / row-wise layers: ReLU, Softmax, Dropout.
#pragma once

#include <memory>

#include "nn/layer.h"

namespace ccperf::nn {

/// Element-wise max(x, 0); in place when its input is handed over.
class ReluLayer final : public Layer {
 public:
  explicit ReluLayer(std::string name);
  [[nodiscard]] Shape OutputShape(const std::vector<Shape>& inputs) const override;
  [[nodiscard]] Tensor Forward(const std::vector<const Tensor*>& inputs) const override;
  [[nodiscard]] Tensor ForwardInPlace(Tensor&& input) const override;
  [[nodiscard]] std::unique_ptr<Layer> Clone() const override;
};

/// Numerically-stable softmax over the channel axis of an NCHW tensor
/// (spatial extents must be 1x1, as at a classifier head).
class SoftmaxLayer final : public Layer {
 public:
  explicit SoftmaxLayer(std::string name);
  [[nodiscard]] Shape OutputShape(const std::vector<Shape>& inputs) const override;
  [[nodiscard]] Tensor Forward(const std::vector<const Tensor*>& inputs) const override;
  [[nodiscard]] std::unique_ptr<Layer> Clone() const override;
};

/// Inference-mode dropout: identity (Caffe scales at train time); a
/// handed-over input is returned as is.
class DropoutLayer final : public Layer {
 public:
  explicit DropoutLayer(std::string name);
  [[nodiscard]] Shape OutputShape(const std::vector<Shape>& inputs) const override;
  [[nodiscard]] Tensor Forward(const std::vector<const Tensor*>& inputs) const override;
  [[nodiscard]] Tensor ForwardInPlace(Tensor&& input) const override;
  [[nodiscard]] std::unique_ptr<Layer> Clone() const override;
};

}  // namespace ccperf::nn
