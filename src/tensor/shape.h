// Tensor shape: a small vector of extents with row-major strides.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace ccperf {

/// Immutable-ish shape of a dense row-major tensor. Rank <= 4 in practice
/// (NCHW activations, OIHW weights, rank-2 matrices, rank-1 biases).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims);
  explicit Shape(std::vector<std::int64_t> dims);

  [[nodiscard]] std::size_t Rank() const { return dims_.size(); }
  [[nodiscard]] std::int64_t Dim(std::size_t axis) const;
  [[nodiscard]] const std::vector<std::int64_t>& Dims() const { return dims_; }

  /// Product of all extents (1 for rank-0).
  [[nodiscard]] std::int64_t NumElements() const;

  [[nodiscard]] bool operator==(const Shape& other) const = default;

  /// "[2, 3, 224, 224]"
  [[nodiscard]] std::string ToString() const;

 private:
  std::vector<std::int64_t> dims_;
};

}  // namespace ccperf
