#include "nn/activation_layers.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ccperf::nn {

ReluLayer::ReluLayer(std::string name)
    : Layer(std::move(name), LayerKind::kReLU) {}

Shape ReluLayer::OutputShape(const std::vector<Shape>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1, "relu takes one input");
  return inputs[0];
}

Tensor ReluLayer::Forward(const std::vector<const Tensor*>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1 && inputs[0] != nullptr, "relu arity");
  return ForwardInPlace(Tensor(*inputs[0]));
}

Tensor ReluLayer::ForwardInPlace(Tensor&& input) const {
  Tensor out = std::move(input);
  for (float& v : out.Data()) v = std::max(v, 0.0f);
  return out;
}

std::unique_ptr<Layer> ReluLayer::Clone() const {
  return std::make_unique<ReluLayer>(Name());
}

SoftmaxLayer::SoftmaxLayer(std::string name)
    : Layer(std::move(name), LayerKind::kSoftmax) {}

Shape SoftmaxLayer::OutputShape(const std::vector<Shape>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1, "softmax takes one input");
  CCPERF_CHECK(inputs[0].Rank() == 4 && inputs[0].Dim(2) == 1 &&
                   inputs[0].Dim(3) == 1,
               "softmax expects [N,C,1,1], got ", inputs[0].ToString());
  return inputs[0];
}

Tensor SoftmaxLayer::Forward(const std::vector<const Tensor*>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1 && inputs[0] != nullptr, "softmax arity");
  const Tensor& in = *inputs[0];
  (void)OutputShape({in.GetShape()});
  Tensor out = in;
  const std::int64_t batch = in.GetShape().Dim(0);
  const std::int64_t classes = in.GetShape().Dim(1);
  float* data = out.Data().data();
  for (std::int64_t b = 0; b < batch; ++b) {
    float* row = data + b * classes;
    const float mx = *std::max_element(row, row + classes);
    float sum = 0.0f;
    for (std::int64_t c = 0; c < classes; ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    for (std::int64_t c = 0; c < classes; ++c) row[c] /= sum;
  }
  return out;
}

std::unique_ptr<Layer> SoftmaxLayer::Clone() const {
  return std::make_unique<SoftmaxLayer>(Name());
}

DropoutLayer::DropoutLayer(std::string name)
    : Layer(std::move(name), LayerKind::kDropout) {}

Shape DropoutLayer::OutputShape(const std::vector<Shape>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1, "dropout takes one input");
  return inputs[0];
}

Tensor DropoutLayer::Forward(const std::vector<const Tensor*>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1 && inputs[0] != nullptr, "dropout arity");
  return *inputs[0];
}

Tensor DropoutLayer::ForwardInPlace(Tensor&& input) const {
  return std::move(input);
}

std::unique_ptr<Layer> DropoutLayer::Clone() const {
  return std::make_unique<DropoutLayer>(Name());
}

}  // namespace ccperf::nn
