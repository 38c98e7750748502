#include "core/empirical_accuracy.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace ccperf::core {

EmpiricalAccuracyEvaluator::EmpiricalAccuracyEvaluator(
    const nn::Network& teacher, const data::SyntheticImageDataset& dataset,
    std::int64_t sample_images, std::int64_t batch, double base_top1,
    double base_top5)
    : dataset_(dataset),
      sample_images_(sample_images),
      batch_(batch),
      base_top1_(base_top1),
      base_top5_(base_top5) {
  CCPERF_CHECK(sample_images_ >= 1 && sample_images_ <= dataset.Size(),
               "sample size out of range");
  CCPERF_CHECK(batch_ >= 1, "batch must be positive");
  CCPERF_CHECK(base_top1_ > 0.0 && base_top5_ >= base_top1_ &&
                   base_top5_ <= 1.0,
               "invalid base accuracies");
  teacher_labels_.reserve(static_cast<std::size_t>(sample_images_));
  for (std::int64_t start = 0; start < sample_images_; start += batch_) {
    const std::int64_t count = std::min(batch_, sample_images_ - start);
    const Tensor logits = teacher.Forward(dataset_.Batch(start, count));
    for (std::int64_t label : nn::ArgMax(logits)) {
      teacher_labels_.push_back(label);
    }
  }
}

AccuracyResult EmpiricalAccuracyEvaluator::Agreement(
    const nn::Network& variant) const {
  std::int64_t top1_hits = 0;
  std::int64_t top5_hits = 0;
  for (std::int64_t start = 0; start < sample_images_; start += batch_) {
    const std::int64_t count = std::min(batch_, sample_images_ - start);
    const Tensor logits = variant.Forward(dataset_.Batch(start, count));
    const std::size_t k = std::min<std::size_t>(
        5, static_cast<std::size_t>(logits.GetShape().Dim(1)));
    const auto top5 = nn::TopK(logits, k);
    for (std::int64_t i = 0; i < count; ++i) {
      const std::int64_t expected =
          teacher_labels_[static_cast<std::size_t>(start + i)];
      const auto& ranked = top5[static_cast<std::size_t>(i)];
      if (ranked.front() == expected) ++top1_hits;
      if (std::find(ranked.begin(), ranked.end(), expected) != ranked.end()) {
        ++top5_hits;
      }
    }
  }
  const auto n = static_cast<double>(sample_images_);
  return {static_cast<double>(top1_hits) / n,
          static_cast<double>(top5_hits) / n};
}

AccuracyResult EmpiricalAccuracyEvaluator::Evaluate(
    const nn::Network& variant) const {
  const AccuracyResult agreement = Agreement(variant);
  return {agreement.top1 * base_top1_, agreement.top5 * base_top5_};
}

AccuracyResult EmpiricalAccuracyEvaluator::EvaluateInt8(
    const nn::Network& variant) const {
  nn::Network quantized = variant.Clone();
  quantized.SetInt8Execution(true);
  return Evaluate(quantized);
}

}  // namespace ccperf::core
