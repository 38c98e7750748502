#include "core/metrics.h"

#include <cmath>

#include "common/check.h"

namespace ccperf::core {

namespace detail {
double CheckedRatio(double value, double accuracy) {
  CCPERF_CHECK(value >= 0.0, "metric numerator must be non-negative");
  CCPERF_CHECK(accuracy > 0.0 && accuracy <= 1.0,
               "accuracy must be in (0, 1], got ", accuracy);
  return value / accuracy;
}
}  // namespace detail

double CostAccuracyRatio(Usd cost, double accuracy) {
  return detail::CheckedRatio(cost.value(), accuracy);
}

Seconds ExpectedSecondsUnderInterruption(Seconds duration, RatePerHour rate) {
  const double seconds = duration.value();
  const double rate_per_hour = rate.value();
  CCPERF_CHECK(seconds >= 0.0, "seconds must be non-negative");
  CCPERF_CHECK(rate_per_hour >= 0.0, "interruption rate must be >= 0");
  if (rate_per_hour == 0.0 || seconds == 0.0) return duration;
  const double lambda = rate_per_hour / 3600.0;  // per second
  // (e^{λt} - 1)/λ; expm1 keeps small-λt numerically exact.
  return Seconds(std::expm1(lambda * seconds) / lambda);
}

Usd ExpectedCostUnderInterruption(Usd cost, Seconds duration,
                                  RatePerHour rate) {
  CCPERF_CHECK(cost >= Usd(0.0), "cost must be non-negative");
  if (duration == Seconds(0.0)) return cost;
  // Billed time scales with expected wall-clock time.
  return cost * (ExpectedSecondsUnderInterruption(duration, rate) / duration);
}

double ExpectedCostAccuracyRatio(Usd cost, Seconds duration, double accuracy,
                                 RatePerHour rate) {
  return CostAccuracyRatio(
      ExpectedCostUnderInterruption(cost, duration, rate), accuracy);
}

}  // namespace ccperf::core
