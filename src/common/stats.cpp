#include "common/stats.h"

#include <algorithm>

#include "common/check.h"

namespace ccperf {

double MinOf(std::span<const double> values) {
  CCPERF_CHECK(!values.empty(), "MinOf requires a non-empty sample");
  return *std::min_element(values.begin(), values.end());
}

double MeanOf(std::span<const double> values) {
  CCPERF_CHECK(!values.empty(), "MeanOf requires a non-empty sample");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> SelectQuantiles(std::span<double> values,
                                    std::span<const double> ascending_qs) {
  CCPERF_CHECK(!values.empty(), "Quantile requires a non-empty sample");
  for (std::size_t i = 0; i < ascending_qs.size(); ++i) {
    const double q = ascending_qs[i];
    CCPERF_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
    CCPERF_CHECK(i == 0 || ascending_qs[i - 1] <= q,
                 "quantiles must be requested in ascending order");
  }
  // Each selection leaves [lo, end) holding exactly the order statistics
  // from lo up, so the next (larger) q selects inside that shrinking range;
  // the interpolation neighbour sorted[lo + 1] is the minimum above lo.
  std::vector<double> out;
  out.reserve(ascending_qs.size());
  const std::size_t last = values.size() - 1;
  auto first = values.begin();
  for (const double q : ascending_qs) {
    const double pos = q * static_cast<double>(last);
    const auto lo = static_cast<std::size_t>(pos);
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(first, nth, values.end());
    first = nth;
    const double below = *nth;
    const double above =
        lo < last ? *std::min_element(nth + 1, values.end()) : below;
    const double frac = pos - static_cast<double>(lo);
    out.push_back(below * (1.0 - frac) + above * frac);
  }
  return out;
}

}  // namespace ccperf
