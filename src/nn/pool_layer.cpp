#include "nn/pool_layer.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace ccperf::nn {

namespace {
std::int64_t CeilDiv(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }
}  // namespace

PoolLayer::PoolLayer(std::string name, LayerKind kind, PoolParams params)
    : Layer(std::move(name), kind), params_(params) {
  CCPERF_CHECK(kind == LayerKind::kMaxPool || kind == LayerKind::kAvgPool,
               "PoolLayer kind must be max or avg pool");
  CCPERF_CHECK(params_.kernel > 0 && params_.stride > 0 && params_.pad >= 0,
               "invalid pool params for ", Name());
  // Caffe's CHECK_LT(pad, kernel): a window must reach into the image.
  CCPERF_CHECK(params_.pad < params_.kernel, "pool pad ", params_.pad,
               " must be below kernel ", params_.kernel, " in ", Name());
}

Shape PoolLayer::OutputShape(const std::vector<Shape>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1, "pool takes one input");
  const Shape& in = inputs[0];
  CCPERF_CHECK(in.Rank() == 4, "pool input must be NCHW");
  const auto pooled = [&](std::int64_t size) {
    std::int64_t out =
        CeilDiv(size + 2 * params_.pad - params_.kernel, params_.stride) + 1;
    // Caffe's clip, applied for every pad as PyTorch does: ceil mode must
    // not add a last window that starts past the image. Together with
    // pad < kernel, every window then overlaps the image.
    if ((out - 1) * params_.stride >= size + params_.pad) --out;
    return out;
  };
  const std::int64_t out_h = pooled(in.Dim(2));
  const std::int64_t out_w = pooled(in.Dim(3));
  CCPERF_CHECK(out_h > 0 && out_w > 0, "pool output collapses for ", Name());
  return Shape{in.Dim(0), in.Dim(1), out_h, out_w};
}

Tensor PoolLayer::Forward(const std::vector<const Tensor*>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1 && inputs[0] != nullptr, "pool arity");
  const Tensor& in = *inputs[0];
  const Shape out_shape = OutputShape({in.GetShape()});
  Tensor out(out_shape);

  const std::int64_t batch = in.GetShape().Dim(0);
  const std::int64_t channels = in.GetShape().Dim(1);
  const std::int64_t in_h = in.GetShape().Dim(2);
  const std::int64_t in_w = in.GetShape().Dim(3);
  const std::int64_t out_h = out_shape.Dim(2);
  const std::int64_t out_w = out_shape.Dim(3);
  const bool is_max = Kind() == LayerKind::kMaxPool;

  const float* src = in.Data().data();
  float* dst = out.Data().data();
  ForEachImage(batch, [&](std::int64_t b) {
    for (std::int64_t nc = b * channels; nc < (b + 1) * channels; ++nc) {
      const float* plane = src + nc * in_h * in_w;
      float* oplane = dst + nc * out_h * out_w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        const std::int64_t h0 = std::max<std::int64_t>(0, oh * params_.stride - params_.pad);
        const std::int64_t h1 = std::min(in_h, oh * params_.stride - params_.pad + params_.kernel);
        for (std::int64_t ow = 0; ow < out_w; ++ow) {
          const std::int64_t w0 = std::max<std::int64_t>(0, ow * params_.stride - params_.pad);
          const std::int64_t w1 = std::min(in_w, ow * params_.stride - params_.pad + params_.kernel);
          if (is_max) {
            float best = -std::numeric_limits<float>::infinity();
            for (std::int64_t h = h0; h < h1; ++h) {
              for (std::int64_t w = w0; w < w1; ++w) {
                best = std::max(best, plane[h * in_w + w]);
              }
            }
            oplane[oh * out_w + ow] = best;
          } else {
            float sum = 0.0f;
            const std::int64_t count = (h1 - h0) * (w1 - w0);
            for (std::int64_t h = h0; h < h1; ++h) {
              for (std::int64_t w = w0; w < w1; ++w) {
                sum += plane[h * in_w + w];
              }
            }
            oplane[oh * out_w + ow] = sum / static_cast<float>(count);
          }
        }
      }
    }
  });
  return out;
}

std::unique_ptr<Layer> PoolLayer::Clone() const {
  return std::make_unique<PoolLayer>(Name(), Kind(), params_);
}

}  // namespace ccperf::nn
