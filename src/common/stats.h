// Small descriptive-statistics helpers for measurement post-processing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ccperf {

/// Minimum of a non-empty sample (the paper records min of 3 repetitions).
double MinOf(std::span<const double> values);

/// Arithmetic mean of a non-empty sample.
double MeanOf(std::span<const double> values);

/// The linearly interpolated quantile of a non-empty sample for every q of
/// `ascending_qs` (non-decreasing, each in [0, 1]): for q, the sorted
/// sample's elements at floor(q * (n - 1)) and the next one, weighted by
/// the fraction. One in-place selection pass instead of a full sort per q;
/// `values` is left in an unspecified order.
std::vector<double> SelectQuantiles(std::span<double> values,
                                    std::span<const double> ascending_qs);

}  // namespace ccperf
