// Empirical accuracy evaluation by teacher-student agreement.
//
// We cannot measure true ImageNet accuracy without the trained models, so we
// measure agreement of a pruned variant with its own unpruned reference
// ("teacher"): Top-1 agreement = fraction of images where the variant's
// argmax equals the teacher's; Top-5 = teacher's label within the variant's
// top-5. This reproduces the *mechanism* behind the paper's sweet-spots —
// low-magnitude weights carry little of the decision — and is mapped onto
// the paper's absolute scale by multiplying with the base accuracies.
#pragma once

#include <cstdint>
#include <vector>

#include "core/accuracy_model.h"
#include "data/synthetic_dataset.h"
#include "nn/network.h"

namespace ccperf::core {

/// Measures accuracy of pruned variants against an unpruned teacher.
class EmpiricalAccuracyEvaluator {
 public:
  /// Runs the teacher over the first `sample_images` of `dataset` (in
  /// batches of `batch`) and caches its Top-1 labels.
  EmpiricalAccuracyEvaluator(const nn::Network& teacher,
                             const data::SyntheticImageDataset& dataset,
                             std::int64_t sample_images, std::int64_t batch,
                             double base_top1 = 0.55, double base_top5 = 0.80);

  /// Agreement of `variant` with the teacher, scaled to the absolute base.
  [[nodiscard]] AccuracyResult Evaluate(const nn::Network& variant) const;

  /// Raw (unscaled) agreement fractions.
  [[nodiscard]] AccuracyResult Agreement(const nn::Network& variant) const;

  /// Agreement of an int8-quantized execution of `variant` with the float
  /// teacher: the variant is cloned, opted into int8, and evaluated —
  /// measuring quantization damage empirically (the measurement that
  /// calibrates CalibratedAccuracyModel::kInt8QuantDamage). Composes with
  /// pruning: a pruned variant evaluates the sparse+quantized dispatch.
  [[nodiscard]] AccuracyResult EvaluateInt8(const nn::Network& variant) const;

  [[nodiscard]] std::int64_t SampleSize() const { return sample_images_; }

 private:
  const data::SyntheticImageDataset& dataset_;
  std::int64_t sample_images_;
  std::int64_t batch_;
  double base_top1_;
  double base_top5_;
  std::vector<std::int64_t> teacher_labels_;
};

}  // namespace ccperf::core
