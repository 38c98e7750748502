#include "nn/fc_layer.h"

#include "common/check.h"
#include "tensor/gemm.h"

namespace ccperf::nn {

FcLayer::FcLayer(std::string name, std::int64_t in_features,
                 std::int64_t out_features)
    : Layer(std::move(name), LayerKind::kFullyConnected),
      in_features_(in_features),
      out_features_(out_features),
      weights_(Shape{out_features, in_features}),
      bias_(Shape{out_features}) {
  CCPERF_CHECK(in_features_ > 0 && out_features_ > 0, "invalid fc extents");
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
  const std::span<const float> b = bias_.Data();

  if (batch > 1) {
    // Batched fast path: y^T[out, batch] = W[out, in] * x^T[in, batch].
    // Orienting the product this way makes the weight matrix the stationary
    // A operand (streamed once, each panel packed just before the dense
    // microkernel reads it; the cached CSR/BSR build for the sparse
    // kernels), so one blocked multiply serves the whole batch instead of a
    // per-sample vector multiply. The two transposes are
    // O(batch * (in + out)) against the multiply's O(batch * in * out).
    std::vector<float> xt(static_cast<std::size_t>(in_features_ * batch));
    for (std::int64_t img = 0; img < batch; ++img) {
      for (std::int64_t f = 0; f < in_features_; ++f) {
        xt[static_cast<std::size_t>(f * batch + img)] =
            x[static_cast<std::size_t>(img * in_features_ + f)];
      }
    }
    std::vector<float> yt(static_cast<std::size_t>(out_features_ * batch));
    // The int8 path fuses the bias into the dequant epilogue (one bias per
    // output row of y^T); the float paths add it during the transpose back.
    switch (format_) {
      case KernelFormat::kCsr:
        csr_.MultiplyDense(xt, batch, yt);
        break;
      case KernelFormat::kBsr:
        bsr_.MultiplyDense(xt, batch, yt);
        break;
      case KernelFormat::kFloat:
        Gemm(out_features_, batch, in_features_, weights_.Data(), xt, yt);
        break;
      case KernelFormat::kInt8:
        GemmInt8(int8_, batch, xt, yt, {.bias = b});
        break;
    }
    // Pure copy when the bias is already fused: adding 0.0f would turn a
    // -0.0 epilogue output into +0.0 and break bitwise invariants.
    const bool bias_fused = format_ == KernelFormat::kInt8;
    for (std::int64_t img = 0; img < batch; ++img) {
      for (std::int64_t o = 0; o < out_features_; ++o) {
        const float v = yt[static_cast<std::size_t>(o * batch + img)];
        y[static_cast<std::size_t>(img * out_features_ + o)] =
            bias_fused ? v : v + b[static_cast<std::size_t>(o)];
      }
    }
    return out;
  }

  for (std::int64_t img = 0; img < batch; ++img) {
    const std::span<const float> xi =
        x.subspan(static_cast<std::size_t>(img * in_features_),
                  static_cast<std::size_t>(in_features_));
    std::span<float> yi =
        y.subspan(static_cast<std::size_t>(img * out_features_),
                  static_cast<std::size_t>(out_features_));
    switch (format_) {
      case KernelFormat::kCsr:
        csr_.MultiplyVector(xi, yi);
        break;
      case KernelFormat::kBsr:
        bsr_.MultiplyVector(xi, yi);
        break;
      case KernelFormat::kFloat:
        Gemv(out_features_, in_features_, weights_.Data(), xi, yi);
        break;
      case KernelFormat::kInt8:
        // One-column GEMM with the bias fused; skip the float add below.
        GemmInt8(int8_, 1, xi, yi, {.bias = b});
        continue;
    }
    for (std::int64_t o = 0; o < out_features_; ++o) {
      yi[static_cast<std::size_t>(o)] += b[static_cast<std::size_t>(o)];
    }
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
      static_cast<double>(weights_.NumElements()) * sizeof(float) * density;
  cost.activation_bytes =
      static_cast<double>(inputs[0].NumElements() +
                          OutputShape(inputs).NumElements()) *
      sizeof(float);
  return cost;
}

std::unique_ptr<Layer> FcLayer::Clone() const {
  auto copy = std::make_unique<FcLayer>(Name(), in_features_, out_features_);
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  copy->int8_enabled_ = int8_enabled_;
  copy->NotifyWeightsChanged();
  return copy;
}

void FcLayer::SetInt8Execution(bool enabled) {
  if (int8_enabled_ == enabled) return;
  int8_enabled_ = enabled;
  NotifyWeightsChanged();  // re-dispatch and (re)build the cached format
}

void FcLayer::NotifyWeightsChanged() {
  const double density = WeightDensity();
  const double fill =
      BsrMatrix::DenseBlockFill(out_features_, in_features_, weights_.Data());
  format_ = ChooseKernelFormat(density, fill, int8_enabled_);
  // Only the dispatched format is built; stale builds for the other formats
  // are dropped so a weight edit can never execute against old weights.
  csr_ = format_ == KernelFormat::kCsr
             ? CsrMatrix::FromDense(out_features_, in_features_,
                                    weights_.Data())
             : CsrMatrix();
  bsr_ = format_ == KernelFormat::kBsr
             ? BsrMatrix::FromDense(out_features_, in_features_,
                                    weights_.Data())
             : BsrMatrix();
  int8_ = format_ == KernelFormat::kInt8
              ? QuantizePackA(out_features_, in_features_, weights_.Data())
              : QuantizedPackedA();
}

double FcLayer::WeightDensity() const { return 1.0 - weights_.ZeroFraction(); }

}  // namespace ccperf::nn
