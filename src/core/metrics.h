// The paper's two accuracy-performance metrics (§3.5):
//   TAR = t / a  — time to achieve one unit of accuracy
//   CAR = c / a  — cost to achieve one unit of accuracy
// Lower is better for both.
//
// Expected-value extensions: on interruptible (spot) capacity a run of t
// seconds restarts from scratch whenever a Poisson interruption (rate λ per
// hour) hits it, so the classic no-checkpoint restart result applies:
//   E[T] = (e^{λt} - 1) / λ
// Feeding E[T]-inflated time/cost into TAR/CAR (and the Pareto filter)
// prices interruption risk into the paper's frontier the way Scavenger-style
// allocators price spot risk into provisioning.
#pragma once

#include "common/units.h"

namespace ccperf::core {

namespace detail {
/// numerator/accuracy with the shared range checks; throws CheckError on
/// negative numerator or accuracy outside (0, 1].
double CheckedRatio(double value, double accuracy);
}  // namespace detail

/// Time Accuracy Ratio in the caller's display unit: the paper reports TAR
/// in whatever unit the figure uses (minutes in Fig. 11, hours in the
/// explorer), so any time quantity is accepted and the ratio keeps its
/// scale. `accuracy` in (0, 1].
template <typename Scale>
double TimeAccuracyRatio(units::Quantity<units::TimeDim, Scale> time,
                         double accuracy) {
  return detail::CheckedRatio(time.value(), accuracy);
}

/// Cost Accuracy Ratio. `cost` >= 0, `accuracy` in (0, 1].
double CostAccuracyRatio(Usd cost, double accuracy);

/// Expected wall-clock time to finish `duration` of uninterrupted work
/// when interruptions arrive at `rate` (Poisson) and every interruption
/// restarts the run: (e^{λt} - 1)/λ, continuous at rate 0.
Seconds ExpectedSecondsUnderInterruption(Seconds duration, RatePerHour rate);

/// Expected cost of that run: the same inflation applied to billed time,
/// `cost` being the interruption-free cost of the run.
Usd ExpectedCostUnderInterruption(Usd cost, Seconds duration, RatePerHour rate);

/// CAR on interruption-inflated expected cost.
double ExpectedCostAccuracyRatio(Usd cost, Seconds duration, double accuracy,
                                 RatePerHour rate);

}  // namespace ccperf::core
