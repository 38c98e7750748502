#include "nn/fc_layer.h"

#include "common/check.h"

namespace ccperf::nn {

FcLayer::FcLayer(std::string name, std::int64_t in_features,
                 std::int64_t out_features)
    : WeightedLayer(std::move(name), LayerKind::kFullyConnected, 1,
                    out_features),
      in_features_(in_features),
      out_features_(out_features) {
  CCPERF_CHECK(in_features_ > 0 && out_features_ > 0, "invalid fc extents");
  MutableWeights() = Tensor(Shape{out_features_, in_features_});
}

Shape FcLayer::OutputShape(const std::vector<Shape>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1, "fc takes one input");
  const Shape& in = inputs[0];
  CCPERF_CHECK(in.Rank() == 4, "fc input must be NCHW");
  CCPERF_CHECK(in.Dim(1) * in.Dim(2) * in.Dim(3) == in_features_, "fc ",
               Name(), " expects ", in_features_, " features, got ",
               in.Dim(1) * in.Dim(2) * in.Dim(3));
  return Shape{in.Dim(0), out_features_, 1, 1};
}

Tensor FcLayer::Forward(const std::vector<const Tensor*>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1 && inputs[0] != nullptr, "fc arity");
  const Tensor& in = *inputs[0];
  const Shape out_shape = OutputShape({in.GetShape()});
  Tensor out(out_shape);

  const std::int64_t batch = in.GetShape().Dim(0);
  const std::span<const float> x = in.Data();
  std::span<float> y = out.Data();

  if (batch > 1) {
    // Batched fast path: y^T[out, batch] = W[out, in] * x^T[in, batch] + b.
    // Orienting the product this way makes the weight matrix the stationary
    // A operand (streamed once, each panel packed just before the dense
    // microkernel reads it; the cached build for the other formats), so one
    // blocked multiply serves the whole batch instead of a per-sample
    // vector multiply. The two transposes are O(batch * (in + out)) against
    // the multiply's O(batch * in * out).
    std::vector<float> xt(static_cast<std::size_t>(in_features_ * batch));
    for (std::int64_t img = 0; img < batch; ++img) {
      for (std::int64_t f = 0; f < in_features_; ++f) {
        xt[static_cast<std::size_t>(f * batch + img)] =
            x[static_cast<std::size_t>(img * in_features_ + f)];
      }
    }
    std::vector<float> yt(static_cast<std::size_t>(out_features_ * batch));
    MultiplyPanel(0, {}, batch, xt, yt);
    for (std::int64_t img = 0; img < batch; ++img) {
      for (std::int64_t o = 0; o < out_features_; ++o) {
        y[static_cast<std::size_t>(img * out_features_ + o)] =
            yt[static_cast<std::size_t>(o * batch + img)];
      }
    }
  } else if (batch == 1) {
    MultiplyVector(x, y);
  }
  return out;
}

LayerCost FcLayer::Cost(const std::vector<Shape>& inputs) const {
  const double density = WeightDensity();
  const std::int64_t batch = inputs[0].Dim(0);
  LayerCost cost;
  cost.flops = 2.0 * static_cast<double>(batch) *
               static_cast<double>(in_features_) *
               static_cast<double>(out_features_) * density;
  cost.weight_bytes =
      static_cast<double>(Weights().NumElements()) * sizeof(float) * density;
  cost.activation_bytes =
      static_cast<double>(inputs[0].NumElements() +
                          OutputShape(inputs).NumElements()) *
      sizeof(float);
  return cost;
}

std::unique_ptr<Layer> FcLayer::Clone() const {
  return CloneWeightsInto(
      std::make_unique<FcLayer>(Name(), in_features_, out_features_));
}

}  // namespace ccperf::nn
