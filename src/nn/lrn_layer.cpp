#include "nn/lrn_layer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ccperf::nn {

LrnLayer::LrnLayer(std::string name, LrnParams params)
    : Layer(std::move(name), LayerKind::kLRN), params_(params) {
  CCPERF_CHECK(params_.local_size >= 1 && params_.local_size % 2 == 1,
               "LRN local_size must be odd");
}

Shape LrnLayer::OutputShape(const std::vector<Shape>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1, "lrn takes one input");
  CCPERF_CHECK(inputs[0].Rank() == 4, "lrn input must be NCHW");
  return inputs[0];
}

Tensor LrnLayer::Forward(const std::vector<const Tensor*>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1 && inputs[0] != nullptr, "lrn arity");
  const Tensor& in = *inputs[0];
  Tensor out(in.GetShape());
  const std::int64_t batch = in.GetShape().Dim(0);
  const std::int64_t channels = in.GetShape().Dim(1);
  const std::int64_t plane = in.GetShape().Dim(2) * in.GetShape().Dim(3);
  const std::int64_t half = params_.local_size / 2;
  const float alpha_over_n =
      params_.alpha / static_cast<float>(params_.local_size);

  // Channel outside, plane inside, so every pass streams whole planes.
  // Each output plane first holds its window sums: x[c']^2 added from 0.0f
  // in ascending c', pixel by pixel, then one pow per pixel turns the sum
  // into the output. This TU keeps the portable flags on purpose: under
  // -march=native, GCC's default -ffp-contract=fast fuses
  // k + alpha_over_n * ss into an FMA, which moves output bits.
  const float* src = in.Data().data();
  float* dst = out.Data().data();
  ForEachImage(batch, [&](std::int64_t b) {
    const float* img = src + b * channels * plane;
    float* oimg = dst + b * channels * plane;
    for (std::int64_t c = 0; c < channels; ++c) {
      const std::int64_t c0 = std::max<std::int64_t>(0, c - half);
      const std::int64_t c1 = std::min(channels, c + half + 1);
      float* ss = oimg + c * plane;
      std::fill(ss, ss + plane, 0.0f);
      for (std::int64_t cc = c0; cc < c1; ++cc) {
        const float* v = img + cc * plane;
        for (std::int64_t p = 0; p < plane; ++p) ss[p] += v[p] * v[p];
      }
      const float* x = img + c * plane;
      for (std::int64_t p = 0; p < plane; ++p) {
        ss[p] = x[p] *
                std::pow(params_.k + alpha_over_n * ss[p], -params_.beta);
      }
    }
  });
  return out;
}

LayerCost LrnLayer::Cost(const std::vector<Shape>& inputs) const {
  LayerCost cost = Layer::Cost(inputs);
  // ~local_size MACs + one pow per element.
  cost.flops = static_cast<double>(inputs[0].NumElements()) *
               (2.0 * static_cast<double>(params_.local_size) + 8.0);
  return cost;
}

std::unique_ptr<Layer> LrnLayer::Clone() const {
  return std::make_unique<LrnLayer>(Name(), params_);
}

}  // namespace ccperf::nn
