// 2-D convolution layer lowered to im2col + the weighted layer's multiply,
// with grouped convolution (AlexNet-style).
#pragma once

#include <memory>
#include <vector>

#include "nn/weighted_layer.h"
#include "tensor/im2col.h"

namespace ccperf::nn {

/// Configuration of a convolution layer.
struct ConvParams {
  std::int64_t out_channels = 0;
  std::int64_t kernel = 1;  // square kernels only (all models here use them)
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  std::int64_t groups = 1;
};

/// Convolution over NCHW input. Weights are OIHW with I = in_channels/groups;
/// each group's [out_channels/groups, patch] slice is one WeightedLayer
/// panel, so the whole layer runs one kernel format.
class ConvLayer final : public WeightedLayer {
 public:
  ConvLayer(std::string name, ConvParams params, std::int64_t in_channels);

  [[nodiscard]] const ConvParams& Params() const { return params_; }
  [[nodiscard]] std::int64_t InChannels() const { return in_channels_; }

  [[nodiscard]] Shape OutputShape(const std::vector<Shape>& inputs) const override;
  [[nodiscard]] Tensor Forward(const std::vector<const Tensor*>& inputs) const override;
  [[nodiscard]] LayerCost Cost(const std::vector<Shape>& inputs) const override;
  [[nodiscard]] std::unique_ptr<Layer> Clone() const override;

 private:
  [[nodiscard]] ConvGeometry GeometryFor(const Shape& input) const;

  ConvParams params_;
  std::int64_t in_channels_;
};

}  // namespace ccperf::nn
