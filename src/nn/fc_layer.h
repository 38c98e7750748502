// Fully-connected (inner product) layer: one weighted-layer panel.
#pragma once

#include <memory>

#include "nn/weighted_layer.h"

namespace ccperf::nn {

/// y = W x + b over the flattened C*H*W input of each batch element.
/// Output shape is [N, out_features, 1, 1]. The weights [out, in] are one
/// WeightedLayer panel. Batched inputs run one blocked multiply against the
/// transposed batch on every format; batch 1 keeps the latency-oriented
/// vector kernels.
class FcLayer final : public WeightedLayer {
 public:
  FcLayer(std::string name, std::int64_t in_features,
          std::int64_t out_features);

  [[nodiscard]] std::int64_t InFeatures() const { return in_features_; }
  [[nodiscard]] std::int64_t OutFeatures() const { return out_features_; }

  [[nodiscard]] Shape OutputShape(const std::vector<Shape>& inputs) const override;
  [[nodiscard]] Tensor Forward(const std::vector<const Tensor*>& inputs) const override;
  [[nodiscard]] LayerCost Cost(const std::vector<Shape>& inputs) const override;
  [[nodiscard]] std::unique_ptr<Layer> Clone() const override;

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
};

}  // namespace ccperf::nn
