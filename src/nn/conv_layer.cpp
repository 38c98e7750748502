#include "nn/conv_layer.h"

#include "common/check.h"
#include "tensor/gemm.h"

namespace ccperf::nn {

ConvLayer::ConvLayer(std::string name, ConvParams params,
                     std::int64_t in_channels)
    : Layer(std::move(name), LayerKind::kConvolution),
      params_(params),
      in_channels_(in_channels),
      bias_(Shape{params.out_channels}) {
  CCPERF_CHECK(params_.out_channels > 0 && params_.kernel > 0 &&
                   params_.stride > 0 && params_.pad >= 0 && params_.groups > 0,
               "invalid conv params for ", Name());
  CCPERF_CHECK(in_channels_ % params_.groups == 0,
               "in_channels ", in_channels_, " not divisible by groups ",
               params_.groups, " in ", Name());
  CCPERF_CHECK(params_.out_channels % params_.groups == 0,
               "out_channels not divisible by groups in ", Name());
  // Shaped only here: the checks above keep a zero `groups` from dividing.
  weights_ = Tensor(Shape{params_.out_channels, in_channels_ / params_.groups,
                          params_.kernel, params_.kernel});
}

ConvGeometry ConvLayer::GeometryFor(const Shape& input) const {
  CCPERF_CHECK(input.Rank() == 4, "conv input must be NCHW, got ",
               input.ToString());
  CCPERF_CHECK(input.Dim(1) == in_channels_, "conv ", Name(), " expects ",
               in_channels_, " channels, got ", input.Dim(1));
  ConvGeometry g;
  g.in_channels = in_channels_ / params_.groups;
  g.in_h = input.Dim(2);
  g.in_w = input.Dim(3);
  g.kernel_h = params_.kernel;
  g.kernel_w = params_.kernel;
  g.stride = params_.stride;
  g.pad = params_.pad;
  return g;
}

Shape ConvLayer::OutputShape(const std::vector<Shape>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1, "conv takes one input");
  const ConvGeometry g = GeometryFor(inputs[0]);
  return Shape{inputs[0].Dim(0), params_.out_channels, g.OutH(), g.OutW()};
}

Tensor ConvLayer::Forward(const std::vector<const Tensor*>& inputs) const {
  CCPERF_CHECK(inputs.size() == 1 && inputs[0] != nullptr, "conv arity");
  const Tensor& in = *inputs[0];
  const Shape out_shape = OutputShape({in.GetShape()});
  Tensor out(out_shape);

  const ConvGeometry g = GeometryFor(in.GetShape());
  const std::int64_t batch = in.GetShape().Dim(0);
  const std::int64_t groups = params_.groups;
  const std::int64_t group_in = in_channels_ / groups;
  const std::int64_t group_out = params_.out_channels / groups;
  const std::int64_t patch = g.PatchSize();
  const std::int64_t out_pixels = g.OutPixels();
  const std::int64_t in_plane = in.GetShape().Dim(2) * in.GetShape().Dim(3);

  // A 1x1, stride-1, unpadded conv samples every input pixel once, in
  // order: each group's CHW slice of the image already is its
  // [patch, out_pixels] column matrix, so it goes to the multiply as is.
  const bool image_is_columns =
      params_.kernel == 1 && params_.stride == 1 && params_.pad == 0;
  std::vector<float> columns(
      image_is_columns ? 0 : static_cast<std::size_t>(patch * out_pixels));
  const std::span<const float> w = weights_.Data();
  const std::span<const float> b = bias_.Data();
  std::span<float> o = out.Data();
  const std::span<const float> x = in.Data();

  // Weights are invariant for the duration of a forward pass, so the dense
  // path packs each group's weight panel once here and reuses it for every
  // image in the batch. Packing is read-on-demand (not cached across calls)
  // because weights may be mutated in place without NotifyWeightsChanged.
  // The int8 path's quantized pack IS cached across calls (int8_groups_):
  // it is rebuilt by NotifyWeightsChanged alongside the sparse builds.
  std::vector<PackedA> packed_groups;
  if (format_ == KernelFormat::kFloat) {
    packed_groups.reserve(static_cast<std::size_t>(groups));
    for (std::int64_t grp = 0; grp < groups; ++grp) {
      packed_groups.push_back(PackA(
          group_out, patch,
          w.subspan(static_cast<std::size_t>(grp * group_out * patch),
                    static_cast<std::size_t>(group_out * patch))));
    }
  }

  for (std::int64_t img = 0; img < batch; ++img) {
    for (std::int64_t grp = 0; grp < groups; ++grp) {
      const std::int64_t in_off = (img * in_channels_ + grp * group_in) * in_plane;
      std::span<const float> cols =
          x.subspan(static_cast<std::size_t>(in_off),
                    static_cast<std::size_t>(group_in * in_plane));
      if (!image_is_columns) {
        Im2Col(g, cols, columns);
        cols = columns;
      }
      const std::int64_t out_off =
          (img * params_.out_channels + grp * group_out) * out_pixels;
      std::span<float> dst = o.subspan(static_cast<std::size_t>(out_off),
                                       static_cast<std::size_t>(group_out * out_pixels));
      switch (format_) {
        case KernelFormat::kCsr:
          csr_groups_[static_cast<std::size_t>(grp)].MultiplyDense(
              cols, out_pixels, dst);
          break;
        case KernelFormat::kBsr:
          bsr_groups_[static_cast<std::size_t>(grp)].MultiplyDense(
              cols, out_pixels, dst);
          break;
        case KernelFormat::kFloat:
          GemmPacked(packed_groups[static_cast<std::size_t>(grp)], out_pixels,
                     cols, dst);
          break;
        case KernelFormat::kInt8:
          // Bias rides the fused dequant epilogue; skip the float add below.
          GemmInt8(int8_groups_[static_cast<std::size_t>(grp)], out_pixels,
                   cols, dst,
                   {.bias = b.subspan(static_cast<std::size_t>(grp * group_out),
                                      static_cast<std::size_t>(group_out))});
          continue;
      }
      // Bias.
      for (std::int64_t oc = 0; oc < group_out; ++oc) {
        const float bias_v = b[static_cast<std::size_t>(grp * group_out + oc)];
        float* row = dst.data() + oc * out_pixels;
        for (std::int64_t p = 0; p < out_pixels; ++p) row[p] += bias_v;
      }
    }
  }
  return out;
}

LayerCost ConvLayer::Cost(const std::vector<Shape>& inputs) const {
  const ConvGeometry g = GeometryFor(inputs[0]);
  const std::int64_t batch = inputs[0].Dim(0);
  const double density = WeightDensity();
  LayerCost cost;
  // 2 flops per surviving MAC; sparse execution skips pruned weights.
  cost.flops = 2.0 * static_cast<double>(batch) *
               static_cast<double>(params_.out_channels / params_.groups) *
               static_cast<double>(g.PatchSize()) *
               static_cast<double>(g.OutPixels()) *
               static_cast<double>(params_.groups) * density;
  cost.weight_bytes =
      static_cast<double>(weights_.NumElements()) * sizeof(float) * density;
  const double in_bytes =
      static_cast<double>(inputs[0].NumElements()) * sizeof(float);
  // im2col inflates input reads by the patch overlap factor.
  const double inflate =
      static_cast<double>(g.kernel_h * g.kernel_w) /
      static_cast<double>(g.stride * g.stride);
  cost.activation_bytes =
      in_bytes * std::max(1.0, inflate) +
      static_cast<double>(OutputShape(inputs).NumElements()) * sizeof(float);
  return cost;
}

std::unique_ptr<Layer> ConvLayer::Clone() const {
  auto copy = std::make_unique<ConvLayer>(Name(), params_, in_channels_);
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  copy->int8_enabled_ = int8_enabled_;
  copy->NotifyWeightsChanged();
  return copy;
}

void ConvLayer::SetInt8Execution(bool enabled) {
  if (int8_enabled_ == enabled) return;
  int8_enabled_ = enabled;
  NotifyWeightsChanged();  // re-dispatch and (re)build the cached format
}

void ConvLayer::NotifyWeightsChanged() {
  const std::int64_t groups = params_.groups;
  const std::int64_t group_out = params_.out_channels / groups;
  const std::int64_t patch = (in_channels_ / groups) * params_.kernel * params_.kernel;
  const std::span<const float> w = weights_.Data();
  const auto group_span = [&](std::int64_t grp) {
    return w.subspan(static_cast<std::size_t>(grp * group_out * patch),
                     static_cast<std::size_t>(group_out * patch));
  };
  // One kernel for the whole layer: density over all weights, block fill
  // averaged over the groups' (identically shaped) weight panels.
  const double density = WeightDensity();
  double fill = 0.0;
  for (std::int64_t grp = 0; grp < groups; ++grp) {
    fill += BsrMatrix::DenseBlockFill(group_out, patch, group_span(grp));
  }
  fill /= static_cast<double>(groups);
  format_ = ChooseKernelFormat(density, fill, int8_enabled_);

  // Only the dispatched format is built; stale builds for the other formats
  // are dropped so a weight edit can never execute against old weights.
  csr_groups_.clear();
  bsr_groups_.clear();
  int8_groups_.clear();
  for (std::int64_t grp = 0; grp < groups; ++grp) {
    switch (format_) {
      case KernelFormat::kCsr:
        csr_groups_.push_back(
            CsrMatrix::FromDense(group_out, patch, group_span(grp)));
        break;
      case KernelFormat::kBsr:
        bsr_groups_.push_back(
            BsrMatrix::FromDense(group_out, patch, group_span(grp)));
        break;
      case KernelFormat::kInt8:
        int8_groups_.push_back(
            QuantizePackA(group_out, patch, group_span(grp)));
        break;
      case KernelFormat::kFloat:
        break;
    }
    if (format_ == KernelFormat::kFloat) break;
  }
}

double ConvLayer::WeightDensity() const {
  return 1.0 - weights_.ZeroFraction();
}

}  // namespace ccperf::nn
