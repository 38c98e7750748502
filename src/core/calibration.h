// Calibration: fit the analytical models from measured curves — the
// "measurement-driven analytical modeling" loop of the paper's §3.
//
// Accuracy side: the damage model predicts m(r) = 1 / (1 + (s r^p)^k) for a
// single-layer sweep. Inverting, log D(r) = log s + p log r with
// D = (1/m - 1)^{1/k}, so (s, p) come from ordinary least squares in log
// space over the samples where accuracy has measurably dropped.
//
// Time side: a single-layer sweep obeys t(r)/t(0) = 1 - share·pf·r, so the
// slope of a linear fit recovers share·pf; given the layer's time share,
// that yields its prunable fraction.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/accuracy_model.h"
#include "core/sweet_spot.h"

namespace ccperf::core {

/// Result of fitting one layer's damage parameters.
struct DamageFit {
  LayerDamage damage;
  double rms_error = 0.0;   // RMS of predicted-vs-observed multiplier
  int samples_used = 0;     // points with informative accuracy drop
  bool ok = false;          // enough informative samples to fit
};

/// Fit (sensitivity, exponent) from a single-layer sweep. `curve` must be a
/// ratio-ascending sweep starting at ratio 0 (its top5 defines the base).
/// Samples whose multiplier is within `min_drop` of 1 carry no damage
/// signal and are skipped; at least two informative samples are required.
DamageFit FitLayerDamage(std::span<const CurvePoint> curve,
                         double knee_exponent = 2.0, double min_drop = 0.02);

/// Result of fitting one layer's time behaviour.
struct TimeFit {
  double share_times_prunable = 0.0;  // slope of 1 - t(r)/t(0)
  double prunable_fraction = 0.0;     // slope / time_share
  double rms_error = 0.0;
  bool ok = false;
};

/// Fit share·pf from a single-layer time sweep; `time_share` (from the
/// layer-time distribution) converts the slope into a prunable fraction.
TimeFit FitPrunableFraction(std::span<const CurvePoint> curve,
                            double time_share);

/// Fit a complete accuracy model from per-layer sweeps. Layers whose fit
/// fails (accuracy never moved) fall back to `fallback` damage.
/// `measured_family` is the pruner the curves were measured with: the
/// returned model applies CalibratedAccuracyModel's per-family discount at
/// evaluation time, so fitted sensitivities are normalized to make plans of
/// the same family reproduce the measurements.
CalibratedAccuracyModel FitAccuracyModel(
    const std::map<std::string, std::vector<CurvePoint>>& layer_curves,
    double base_top1, double base_top5,
    pruning::PrunerFamily measured_family = pruning::PrunerFamily::kL1Filter,
    LayerDamage fallback = LayerDamage{2.0, 5.0}, double knee_exponent = 2.0);

}  // namespace ccperf::core
