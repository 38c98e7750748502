// Accuracy response models: how Top-1/Top-5 accuracy degrades with pruning.
//
// CalibratedAccuracyModel is a parametric damage model fitted to the paper's
// published curves (Figs. 6-8): each pruned layer contributes damage
// s_l * r^p_l, and total damage maps to an accuracy multiplier through a
// knee-shaped response 1 / (1 + D^k). The knee reproduces the paper's
// sweet-spots (small damage is free) and the super-additive accuracy drop
// when several individually-safe layers are pruned together (Obs. 3).
#pragma once

#include <map>
#include <string>

#include "pruning/prune_plan.h"

namespace ccperf::core {

/// Top-1 / Top-5 accuracy in [0, 1].
struct AccuracyResult {
  double top1 = 0.0;
  double top5 = 0.0;
};

/// Interface: accuracy of a degree of pruning.
class AccuracyModel {
 public:
  virtual ~AccuracyModel() = default;

  /// Accuracy of the variant obtained by applying `plan`.
  [[nodiscard]] virtual AccuracyResult Evaluate(
      const pruning::PrunePlan& plan) const = 0;

  /// Accuracy of the unpruned application.
  [[nodiscard]] virtual AccuracyResult Baseline() const = 0;
};

/// Damage parameters of one layer: damage(r) = sensitivity * r^exponent.
struct LayerDamage {
  double sensitivity = 2.0;
  double exponent = 5.0;
};

/// Parametric model with per-layer overrides and a default for layers
/// without one (needed for GoogLeNet's 57 convolutions).
class CalibratedAccuracyModel final : public AccuracyModel {
 public:
  CalibratedAccuracyModel(double base_top1, double base_top5,
                          LayerDamage default_damage,
                          std::map<std::string, LayerDamage> overrides,
                          double knee_exponent = 2.0,
                          double top1_steepness = 1.15);

  /// Fitted to the paper's CaffeNet measurements: base 55 % / 80 %;
  /// conv1 collapses accuracy by 90 % pruning, conv2-5 plateau to ~50 %.
  static CalibratedAccuracyModel CaffeNet();

  /// Fitted to GoogLeNet (Fig. 7): base 68 % / 89 %, sweet spots reach 60 %.
  static CalibratedAccuracyModel GoogLeNet();

  /// Damage added by per-channel int8 quantization of every weighted layer
  /// (the second accuracy knob, orthogonal to pruning). Calibrated against
  /// EmpiricalAccuracyEvaluator::EvaluateInt8 on the scaled CaffeNet: the
  /// measured teacher-student agreement of an int8 forward stays above
  /// 0.98, which maps through the knee 1/(1+D^2) to D ~= 0.12. Quantized
  /// damage is additive with pruning damage, reproducing the observed
  /// super-additive drop when both knobs are pushed together.
  static constexpr double kInt8QuantDamage = 0.12;

  /// Damage contributed by one UNDETECTED silent weight corruption (a
  /// sign/exponent/high-mantissa bit flip that escaped detection and stayed
  /// resident). A single high-bit flip in a conv/fc weight of the scaled
  /// CaffeNet typically drops measured agreement to ~0.75-0.80, which maps
  /// through the knee 1/(1+D^2) to D ~= 0.55. Additive with pruning and
  /// quantization damage — a corrupted aggressive variant degrades
  /// super-additively, same as Obs. 3. The cloud SDC model prices escaped
  /// corruption with this damage: cloud/sdc.h's kCorruptTop1Factor and
  /// kCorruptTop5Factor are EvaluateQuantized({}, kSdcCorruptionDamage)
  /// over Evaluate({}) on CaffeNet(), rounded to 3 decimals (a test pins
  /// the link).
  static constexpr double kSdcCorruptionDamage = 0.55;

  [[nodiscard]] AccuracyResult Evaluate(
      const pruning::PrunePlan& plan) const override;
  [[nodiscard]] AccuracyResult Baseline() const override;

  /// Accuracy of `plan` executed on the int8 path: pruning damage plus
  /// `quant_damage`, through the same knee response. Evaluate(plan) is
  /// exactly EvaluateQuantized(plan, 0.0).
  [[nodiscard]] AccuracyResult EvaluateQuantized(
      const pruning::PrunePlan& plan,
      double quant_damage = kInt8QuantDamage) const;

  /// Total damage D of a plan (exposed for tests and calibration).
  [[nodiscard]] double DamageOf(const pruning::PrunePlan& plan) const;

 private:
  double base_top1_;
  double base_top5_;
  LayerDamage default_damage_;
  std::map<std::string, LayerDamage> overrides_;
  double knee_exponent_;
  double top1_steepness_;
};

}  // namespace ccperf::core
