#include "core/calibration.h"

#include <cmath>
#include <vector>

#include "common/check.h"

namespace ccperf::core {

namespace {

void CheckSweep(std::span<const CurvePoint> curve) {
  CCPERF_CHECK(curve.size() >= 3, "calibration sweep needs >= 3 points");
  CCPERF_CHECK(curve.front().ratio == 0.0, "sweep must start at ratio 0");
  for (std::size_t i = 1; i < curve.size(); ++i) {
    CCPERF_CHECK(curve[i].ratio > curve[i - 1].ratio,
                 "sweep ratios must increase");
  }
}

/// Weighted least squares y = a + b x; returns {a, b}.
std::pair<double, double> LeastSquares(const std::vector<double>& x,
                                       const std::vector<double>& y,
                                       const std::vector<double>& w) {
  double sw = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sw += w[i];
    sx += w[i] * x[i];
    sy += w[i] * y[i];
    sxx += w[i] * x[i] * x[i];
    sxy += w[i] * x[i] * y[i];
  }
  const double denom = sw * sxx - sx * sx;
  if (denom == 0.0) return {sy / sw, 0.0};
  const double b = (sw * sxy - sx * sy) / denom;
  const double a = (sy - b * sx) / sw;
  return {a, b};
}

}  // namespace

DamageFit FitLayerDamage(std::span<const CurvePoint> curve,
                         double knee_exponent, double min_drop) {
  CheckSweep(curve);
  CCPERF_CHECK(knee_exponent > 0.0, "knee exponent must be positive");
  const double base = curve.front().top5;
  CCPERF_CHECK(base > 0.0, "base accuracy must be positive");

  DamageFit fit;
  std::vector<double> log_r, log_d, weight;
  for (const CurvePoint& p : curve) {
    if (p.ratio <= 0.0) continue;
    const double m = p.top5 / base;
    if (m >= 1.0 - min_drop || m <= 0.0) continue;  // no signal / collapsed
    const double damage = std::pow(1.0 / m - 1.0, 1.0 / knee_exponent);
    log_r.push_back(std::log(p.ratio));
    log_d.push_back(std::log(damage));
    // Near-flat samples carry mostly measurement noise in log-damage;
    // weight each point by its observed accuracy drop.
    weight.push_back((1.0 - m) * (1.0 - m));
  }
  fit.samples_used = static_cast<int>(log_r.size());
  if (fit.samples_used < 2) return fit;  // not enough informative points

  const auto [a, b] = LeastSquares(log_r, log_d, weight);
  fit.damage.sensitivity = std::exp(a);
  fit.damage.exponent = b;
  fit.ok = fit.damage.sensitivity > 0.0 && fit.damage.exponent > 0.0;

  // Residual on the multiplier scale over the informative samples.
  double ss = 0.0;
  int count = 0;
  for (const CurvePoint& p : curve) {
    if (p.ratio <= 0.0) continue;
    const double m_obs = p.top5 / base;
    if (m_obs >= 1.0 - min_drop || m_obs <= 0.0) continue;
    const double damage =
        fit.damage.sensitivity * std::pow(p.ratio, fit.damage.exponent);
    const double m_pred = 1.0 / (1.0 + std::pow(damage, knee_exponent));
    ss += (m_pred - m_obs) * (m_pred - m_obs);
    ++count;
  }
  fit.rms_error = count > 0 ? std::sqrt(ss / count) : 0.0;
  return fit;
}

TimeFit FitPrunableFraction(std::span<const CurvePoint> curve,
                            double time_share) {
  CheckSweep(curve);
  CCPERF_CHECK(time_share > 0.0 && time_share <= 1.0,
               "time share must be in (0, 1]");
  const double t0 = curve.front().seconds;
  CCPERF_CHECK(t0 > 0.0, "base time must be positive");

  // Fit 1 - t(r)/t0 = slope * r through the origin.
  double num = 0.0, den = 0.0;
  for (const CurvePoint& p : curve) {
    if (p.ratio <= 0.0) continue;
    const double saving = 1.0 - p.seconds / t0;
    num += saving * p.ratio;
    den += p.ratio * p.ratio;
  }
  TimeFit fit;
  if (den == 0.0) return fit;
  fit.share_times_prunable = num / den;
  fit.prunable_fraction = fit.share_times_prunable / time_share;
  fit.ok = fit.share_times_prunable > 0.0 && fit.prunable_fraction <= 1.0;

  double ss = 0.0;
  int count = 0;
  for (const CurvePoint& p : curve) {
    if (p.ratio <= 0.0) continue;
    const double pred = 1.0 - fit.share_times_prunable * p.ratio;
    ss += (pred - p.seconds / t0) * (pred - p.seconds / t0);
    ++count;
  }
  fit.rms_error = count > 0 ? std::sqrt(ss / count) : 0.0;
  return fit;
}

CalibratedAccuracyModel FitAccuracyModel(
    const std::map<std::string, std::vector<CurvePoint>>& layer_curves,
    double base_top1, double base_top5,
    pruning::PrunerFamily measured_family, LayerDamage fallback,
    double knee_exponent) {
  CCPERF_CHECK(!layer_curves.empty(), "no calibration curves");
  // The model discounts magnitude-pruning damage by this factor at
  // evaluation time (CalibratedAccuracyModel::DamageOf); curves measured
  // under magnitude pruning already contain the gentler response, so their
  // fitted sensitivities must be scaled back up.
  const double family_discount =
      measured_family == pruning::PrunerFamily::kMagnitude ? 0.55 : 1.0;
  std::map<std::string, LayerDamage> overrides;
  for (const auto& [layer, curve] : layer_curves) {
    DamageFit fit = FitLayerDamage(curve, knee_exponent);
    fit.damage.sensitivity /= family_discount;
    overrides[layer] = fit.ok ? fit.damage : fallback;
  }
  return CalibratedAccuracyModel(base_top1, base_top5, fallback,
                                 std::move(overrides), knee_exponent);
}

}  // namespace ccperf::core
