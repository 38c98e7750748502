// Small descriptive-statistics helpers for measurement post-processing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ccperf {

/// Summary of a sample of measurements.
struct SampleStats {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  // population stddev; 0 for count < 2
};

/// Compute summary statistics over a non-empty sample.
SampleStats Summarize(std::span<const double> values);

/// Minimum of a non-empty sample (the paper records min of 3 repetitions).
double MinOf(std::span<const double> values);

/// Arithmetic mean of a non-empty sample.
double MeanOf(std::span<const double> values);

/// Linearly interpolated quantile q in [0, 1] of a non-empty sample.
double Quantile(std::span<const double> values, double q);

/// Quantile(values, q) for every q of `ascending_qs` (non-decreasing, each
/// in [0, 1]): the same interpolation between sorted neighbours, bit for
/// bit, from one scratch copy and one selection pass instead of a full sort
/// per q.
std::vector<double> Quantiles(std::span<const double> values,
                              std::span<const double> ascending_qs);

/// Quantiles() without the scratch copy: selects in place, leaving
/// `values` in an unspecified order.
std::vector<double> SelectQuantiles(std::span<double> values,
                                    std::span<const double> ascending_qs);

}  // namespace ccperf
