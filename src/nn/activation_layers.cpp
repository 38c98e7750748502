#include "nn/activation_layers.h"

#include <algorithm>
#include <cmath>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "common/check.h"

namespace ccperf::nn {

namespace {

// v = std::max(v, 0.0f) over `data`, bit for bit, without a branch:
// maxps(0, v) returns its second operand unless 0 > v, so NaN and -0 pass
// through as they are, as std::max's `v < 0 ? 0 : v` does. Spelled with SSE
// because GCC compiles the portable loop to a compare and a jump, which
// mispredicts on conv outputs' random signs.
void Rectify(std::span<float> data) {
  float* v = data.data();
  const std::size_t n = data.size();
  std::size_t i = 0;
#if defined(__SSE__)
  const __m128 zero = _mm_setzero_ps();
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(v + i, _mm_max_ps(zero, _mm_loadu_ps(v + i)));
  }
  for (; i < n; ++i) _mm_store_ss(v + i, _mm_max_ss(zero, _mm_load_ss(v + i)));
#endif
  for (; i < n; ++i) v[i] = std::max(v[i], 0.0f);
}

}  // namespace

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
  const std::span<float> data = out.Data();
  const std::int64_t batch = out.GetShape().Dim(0);
  if (batch == 0) return out;
  const std::size_t image = data.size() / static_cast<std::size_t>(batch);
  ForEachImage(batch, [&](std::int64_t b) {
    Rectify(data.subspan(static_cast<std::size_t>(b) * image, image));
  });
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
