#include "nn/conv_layer.h"

#include "common/check.h"

namespace ccperf::nn {

ConvLayer::ConvLayer(std::string name, ConvParams params,
                     std::int64_t in_channels)
    : WeightedLayer(std::move(name), LayerKind::kConvolution, params.groups,
                    params.out_channels),
      params_(params),
      in_channels_(in_channels) {
  CCPERF_CHECK(params_.out_channels > 0 && params_.kernel > 0 &&
                   params_.stride > 0 && params_.pad >= 0 && params_.groups > 0,
               "invalid conv params for ", Name());
  CCPERF_CHECK(in_channels_ % params_.groups == 0,
               "in_channels ", in_channels_, " not divisible by groups ",
               params_.groups, " in ", Name());
  CCPERF_CHECK(params_.out_channels % params_.groups == 0,
               "out_channels not divisible by groups in ", Name());
  // Shaped only here: the checks above keep a zero `groups` from dividing.
  MutableWeights() =
      Tensor(Shape{params_.out_channels, in_channels_ / params_.groups,
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
  std::span<float> o = out.Data();
  const std::span<const float> x = in.Data();

  // Weights are invariant for the duration of a forward pass, so a float
  // layer packs each group's panel once here for every image in the batch.
  const std::vector<PackedA> packs = PackFloatPanels();

  // Each image's task runs its groups in order, with a column buffer of
  // its own.
  ForEachImage(batch, [&](std::int64_t img) {
    std::vector<float> columns(
        image_is_columns ? 0 : static_cast<std::size_t>(patch * out_pixels));
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
      MultiplyPanel(grp, packs, out_pixels, cols, dst);
    }
  });
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
      static_cast<double>(Weights().NumElements()) * sizeof(float) * density;
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
  return CloneWeightsInto(
      std::make_unique<ConvLayer>(Name(), params_, in_channels_));
}

}  // namespace ccperf::nn
