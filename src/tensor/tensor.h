// Dense row-major float32 tensor with value semantics.
#pragma once

#include <span>
#include <vector>

#include "tensor/shape.h"

namespace ccperf {

class Rng;

/// Owning dense float tensor. Copy is deep; move is cheap. Layout is
/// row-major in the order of the shape's axes (NCHW for activations).
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);
  Tensor(Shape shape, std::vector<float> data);

  [[nodiscard]] const Shape& GetShape() const { return shape_; }
  [[nodiscard]] std::int64_t NumElements() const { return shape_.NumElements(); }

  [[nodiscard]] std::span<float> Data() { return data_; }
  [[nodiscard]] std::span<const float> Data() const { return data_; }

  /// Flat element access with bounds check.
  [[nodiscard]] float At(std::int64_t i) const;
  void Set(std::int64_t i, float v);

  /// 4-D convenience accessor (n, c, h, w) for NCHW tensors.
  [[nodiscard]] float At4(std::int64_t n, std::int64_t c, std::int64_t h,
                          std::int64_t w) const;
  void Set4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w,
            float v);

  /// Fill with iid N(mean, stddev) values from `rng`.
  void FillGaussian(Rng& rng, float mean, float stddev);

  /// Fraction of exactly-zero elements in [0, 1].
  [[nodiscard]] double ZeroFraction() const;

  /// Sum of |x| over all elements.
  [[nodiscard]] double L1Norm() const;

 private:
  [[nodiscard]] std::int64_t Offset4(std::int64_t n, std::int64_t c,
                                     std::int64_t h, std::int64_t w) const;

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace ccperf
