#include "nn/concat_layer.h"

#include <cstring>

#include "common/check.h"

namespace ccperf::nn {

ConcatLayer::ConcatLayer(std::string name)
    : Layer(std::move(name), LayerKind::kConcat) {}

Shape ConcatLayer::OutputShape(const std::vector<Shape>& inputs) const {
  CCPERF_CHECK(inputs.size() >= 2, "concat needs >= 2 inputs");
  const Shape& first = inputs[0];
  CCPERF_CHECK(first.Rank() == 4, "concat inputs must be NCHW");
  std::int64_t channels = 0;
  for (const Shape& s : inputs) {
    CCPERF_CHECK(s.Rank() == 4 && s.Dim(0) == first.Dim(0) &&
                     s.Dim(2) == first.Dim(2) && s.Dim(3) == first.Dim(3),
                 "concat input shape mismatch: ", s.ToString(), " vs ",
                 first.ToString());
    channels += s.Dim(1);
  }
  return Shape{first.Dim(0), channels, first.Dim(2), first.Dim(3)};
}

Tensor ConcatLayer::Forward(const std::vector<const Tensor*>& inputs) const {
  std::vector<Shape> shapes;
  shapes.reserve(inputs.size());
  for (const Tensor* t : inputs) {
    CCPERF_CHECK(t != nullptr, "null concat input");
    shapes.push_back(t->GetShape());
  }
  const Shape out_shape = OutputShape(shapes);
  Tensor out(out_shape);

  const std::int64_t batch = out_shape.Dim(0);
  const std::int64_t plane = out_shape.Dim(2) * out_shape.Dim(3);
  const std::int64_t out_chan = out_shape.Dim(1);
  float* dst = out.Data().data();

  ForEachImage(batch, [&](std::int64_t b) {
    std::int64_t chan_off = 0;
    for (const Tensor* t : inputs) {
      const std::int64_t c = t->GetShape().Dim(1);
      const float* src = t->Data().data() + b * c * plane;
      std::memcpy(dst + (b * out_chan + chan_off) * plane, src,
                  static_cast<std::size_t>(c * plane) * sizeof(float));
      chan_off += c;
    }
  });
  return out;
}

std::unique_ptr<Layer> ConcatLayer::Clone() const {
  return std::make_unique<ConcatLayer>(Name());
}

}  // namespace ccperf::nn
