#include "nn/layer.h"

#include "common/check.h"
#include "common/threading.h"

namespace ccperf::nn {

const char* LayerKindName(LayerKind kind) {
  switch (kind) {
    case LayerKind::kInput: return "input";
    case LayerKind::kConvolution: return "conv";
    case LayerKind::kReLU: return "relu";
    case LayerKind::kLRN: return "lrn";
    case LayerKind::kMaxPool: return "maxpool";
    case LayerKind::kAvgPool: return "avgpool";
    case LayerKind::kFullyConnected: return "fc";
    case LayerKind::kSoftmax: return "softmax";
    case LayerKind::kConcat: return "concat";
    case LayerKind::kDropout: return "dropout";
  }
  return "?";
}

void ForEachImage(std::int64_t batch,
                  const std::function<void(std::int64_t)>& fn) {
  ParallelFor(
      0, static_cast<std::size_t>(batch),
      [&fn](std::size_t img) { fn(static_cast<std::int64_t>(img)); }, 1);
}

Layer::Layer(std::string name, LayerKind kind)
    : name_(std::move(name)), kind_(kind) {
  CCPERF_CHECK(!name_.empty(), "layer needs a name");
}

Layer::~Layer() = default;

LayerCost Layer::Cost(const std::vector<Shape>& inputs) const {
  // Default: pure data movement, one read + one write of the activations.
  LayerCost cost;
  double in_bytes = 0.0;
  for (const auto& s : inputs) {
    in_bytes += static_cast<double>(s.NumElements()) * sizeof(float);
  }
  const double out_bytes =
      static_cast<double>(OutputShape(inputs).NumElements()) * sizeof(float);
  cost.activation_bytes = in_bytes + out_bytes;
  return cost;
}

Tensor Layer::ForwardInPlace(Tensor&& input) const {
  return Forward({&input});
}

Tensor& Layer::MutableWeights() {
  CCPERF_CHECK(false, "layer '", name_, "' has no weights");
}

const Tensor& Layer::Weights() const {
  CCPERF_CHECK(false, "layer '", name_, "' has no weights");
}

Tensor& Layer::MutableBias() {
  CCPERF_CHECK(false, "layer '", name_, "' has no bias");
}

const Tensor& Layer::Bias() const {
  CCPERF_CHECK(false, "layer '", name_, "' has no bias");
}

}  // namespace ccperf::nn
