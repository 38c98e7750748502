#include "tensor/shape.h"

#include "common/check.h"

namespace ccperf {

Shape::Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {
  for (auto d : dims_) CCPERF_CHECK(d >= 0, "negative dim in shape");
}

Shape::Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
  for (auto d : dims_) CCPERF_CHECK(d >= 0, "negative dim in shape");
}

std::int64_t Shape::Dim(std::size_t axis) const {
  CCPERF_CHECK(axis < dims_.size(), "axis ", axis, " out of range for rank ",
               dims_.size());
  return dims_[axis];
}

std::int64_t Shape::NumElements() const {
  std::int64_t n = 1;
  for (auto d : dims_) n *= d;
  return n;
}

std::string Shape::ToString() const {
  std::string s = "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(dims_[i]);
  }
  return s + "]";
}

}  // namespace ccperf
