#include "core/accuracy_model.h"

#include <cmath>

#include "common/check.h"

namespace ccperf::core {

CalibratedAccuracyModel::CalibratedAccuracyModel(
    double base_top1, double base_top5, LayerDamage default_damage,
    std::map<std::string, LayerDamage> overrides, double knee_exponent,
    double top1_steepness)
    : base_top1_(base_top1),
      base_top5_(base_top5),
      default_damage_(default_damage),
      overrides_(std::move(overrides)),
      knee_exponent_(knee_exponent),
      top1_steepness_(top1_steepness) {
  CCPERF_CHECK(base_top1_ > 0.0 && base_top1_ <= 1.0, "base top1 out of range");
  CCPERF_CHECK(base_top5_ >= base_top1_ && base_top5_ <= 1.0,
               "base top5 must be in [top1, 1]");
  CCPERF_CHECK(knee_exponent_ > 0.0 && top1_steepness_ >= 1.0,
               "invalid response parameters");
}

CalibratedAccuracyModel CalibratedAccuracyModel::CaffeNet() {
  // Fit targets (paper Figs. 6, 8; Top-5, base 80 %):
  //   conv1@30 or conv2@50 alone: "almost unchanged" (~0.96 of base)
  //   conv1@90: collapse to ~0            conv2@90: ~25 % (0.31 of base)
  //   conv1@30 + conv2@50: 70 % (0.875)   all-conv sweet spots: 62 % (0.775)
  std::map<std::string, LayerDamage> overrides;
  overrides["conv1"] = {13.8, 3.5};  // input layer: most accuracy-critical
  overrides["conv2"] = {1.63, 3.5};
  overrides["conv3"] = {2.00, 5.0};
  overrides["conv4"] = {2.00, 5.0};
  overrides["conv5"] = {2.00, 5.0};
  overrides["fc1"] = {0.80, 4.0};
  overrides["fc2"] = {0.80, 4.0};
  overrides["fc3"] = {3.00, 3.0};  // classifier head: pruning it is costly
  return CalibratedAccuracyModel(0.55, 0.80, LayerDamage{2.0, 5.0},
                                 std::move(overrides));
}

CalibratedAccuracyModel CalibratedAccuracyModel::GoogLeNet() {
  // Fig. 7: accuracy flat until ~60 % pruning for the first six layers, so
  // the default exponent is higher (sharper knee, later onset). The stem
  // conv1-7x7-s2 reads the raw image and is the most sensitive.
  std::map<std::string, LayerDamage> overrides;
  overrides["conv1-7x7-s2"] = {8.0, 6.0};
  overrides["conv2-3x3"] = {2.5, 6.0};
  overrides["loss3-classifier"] = {3.0, 3.0};
  return CalibratedAccuracyModel(0.68, 0.89, LayerDamage{1.2, 6.0},
                                 std::move(overrides));
}

double CalibratedAccuracyModel::DamageOf(
    const pruning::PrunePlan& plan) const {
  double damage = 0.0;
  for (const auto& [layer, ratio] : plan.layer_ratios) {
    CCPERF_CHECK(ratio >= 0.0 && ratio < 1.0, "ratio out of range for ",
                 layer);
    if (ratio == 0.0) continue;
    const auto it = overrides_.find(layer);
    const LayerDamage& d =
        it == overrides_.end() ? default_damage_ : it->second;
    damage += d.sensitivity * std::pow(ratio, d.exponent);
  }
  // Unstructured magnitude pruning removes low-energy weights first and is
  // gentler than removing whole filters at the same ratio.
  if (plan.family == pruning::PrunerFamily::kMagnitude) damage *= 0.55;
  return damage;
}

AccuracyResult CalibratedAccuracyModel::Evaluate(
    const pruning::PrunePlan& plan) const {
  return EvaluateQuantized(plan, 0.0);
}

AccuracyResult CalibratedAccuracyModel::EvaluateQuantized(
    const pruning::PrunePlan& plan, double quant_damage) const {
  CCPERF_CHECK(quant_damage >= 0.0, "negative quantization damage");
  const double damage = DamageOf(plan) + quant_damage;
  const double multiplier = 1.0 / (1.0 + std::pow(damage, knee_exponent_));
  AccuracyResult result;
  result.top5 = base_top5_ * multiplier;
  result.top1 = base_top1_ * std::pow(multiplier, top1_steepness_);
  return result;
}

AccuracyResult CalibratedAccuracyModel::Baseline() const {
  return {base_top1_, base_top5_};
}

}  // namespace ccperf::core
