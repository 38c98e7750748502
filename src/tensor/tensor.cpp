#include "tensor/tensor.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace ccperf {

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.NumElements()), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  CCPERF_CHECK(static_cast<std::int64_t>(data_.size()) == shape_.NumElements(),
               "data size ", data_.size(), " != shape elements ",
               shape_.NumElements());
}

float Tensor::At(std::int64_t i) const {
  CCPERF_CHECK(i >= 0 && i < NumElements(), "flat index out of range");
  return data_[static_cast<std::size_t>(i)];
}

void Tensor::Set(std::int64_t i, float v) {
  CCPERF_CHECK(i >= 0 && i < NumElements(), "flat index out of range");
  data_[static_cast<std::size_t>(i)] = v;
}

std::int64_t Tensor::Offset4(std::int64_t n, std::int64_t c, std::int64_t h,
                             std::int64_t w) const {
  CCPERF_CHECK(shape_.Rank() == 4, "At4 requires rank-4, got ",
               shape_.ToString());
  CCPERF_CHECK(n >= 0 && n < shape_.Dim(0) && c >= 0 && c < shape_.Dim(1) &&
                   h >= 0 && h < shape_.Dim(2) && w >= 0 && w < shape_.Dim(3),
               "index (", n, ",", c, ",", h, ",", w, ") out of range for ",
               shape_.ToString());
  return ((n * shape_.Dim(1) + c) * shape_.Dim(2) + h) * shape_.Dim(3) + w;
}

float Tensor::At4(std::int64_t n, std::int64_t c, std::int64_t h,
                  std::int64_t w) const {
  return data_[static_cast<std::size_t>(Offset4(n, c, h, w))];
}

void Tensor::Set4(std::int64_t n, std::int64_t c, std::int64_t h,
                  std::int64_t w, float v) {
  data_[static_cast<std::size_t>(Offset4(n, c, h, w))] = v;
}

void Tensor::FillGaussian(Rng& rng, float mean, float stddev) {
  for (auto& v : data_) {
    v = static_cast<float>(rng.NextGaussian(mean, stddev));
  }
}

double Tensor::ZeroFraction() const {
  if (data_.empty()) return 0.0;
  std::size_t zeros = 0;
  for (float v : data_) {
    if (v == 0.0f) ++zeros;
  }
  return static_cast<double>(zeros) / static_cast<double>(data_.size());
}

double Tensor::L1Norm() const {
  double sum = 0.0;
  for (float v : data_) sum += std::fabs(static_cast<double>(v));
  return sum;
}

}  // namespace ccperf
