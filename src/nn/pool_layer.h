// Max/average spatial pooling over NCHW tensors (Caffe ceil-mode semantics).
#pragma once

#include <memory>

#include "nn/layer.h"

namespace ccperf::nn {

/// Pooling configuration; square windows as used by CaffeNet/GoogLeNet.
struct PoolParams {
  std::int64_t kernel = 2;
  std::int64_t stride = 2;
  std::int64_t pad = 0;
};

/// Spatial pooling layer. Caffe rounds output extents *up* (ceil mode), which
/// is what makes GoogLeNet's 3x3/2 pools produce 28->14->7 maps; we match it,
/// including Caffe's clip of a last window that would start in the padding
/// and its pad < kernel rule, so every window overlaps the image.
class PoolLayer final : public Layer {
 public:
  PoolLayer(std::string name, LayerKind kind, PoolParams params);

  [[nodiscard]] const PoolParams& Params() const { return params_; }

  [[nodiscard]] Shape OutputShape(const std::vector<Shape>& inputs) const override;
  [[nodiscard]] Tensor Forward(const std::vector<const Tensor*>& inputs) const override;
  [[nodiscard]] std::unique_ptr<Layer> Clone() const override;

 private:
  PoolParams params_;
};

}  // namespace ccperf::nn
