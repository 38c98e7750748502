#include "core/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"

namespace ccperf::core {
namespace {

TEST(Tar, BasicValues) {
  EXPECT_DOUBLE_EQ(TimeAccuracyRatio(Seconds(10.0), 0.5), 20.0);
  EXPECT_DOUBLE_EQ(TimeAccuracyRatio(Seconds(0.0), 1.0), 0.0);
}

TEST(Tar, AnyTimeScale) {
  // TAR is scale-polymorphic: hours and minutes feed the same ratio in
  // their own unit (the paper quotes TAR in whatever unit the plot uses).
  EXPECT_DOUBLE_EQ(TimeAccuracyRatio(Hours(2.0), 0.5), 4.0);
  EXPECT_DOUBLE_EQ(TimeAccuracyRatio(Minutes(30.0), 0.6), 50.0);
}

TEST(Car, BasicValues) {
  EXPECT_DOUBLE_EQ(CostAccuracyRatio(Usd(0.57), 1.0), 0.57);
  EXPECT_DOUBLE_EQ(CostAccuracyRatio(Usd(1.0), 0.25), 4.0);
}

TEST(Metrics, LowerIsBetterOrdering) {
  // Same accuracy, less time -> lower TAR; same time, more accuracy ->
  // lower TAR. The paper uses this ordering as the greedy heuristic.
  EXPECT_LT(TimeAccuracyRatio(Seconds(5.0), 0.8),
            TimeAccuracyRatio(Seconds(10.0), 0.8));
  EXPECT_LT(TimeAccuracyRatio(Seconds(10.0), 0.9),
            TimeAccuracyRatio(Seconds(10.0), 0.8));
}

TEST(Metrics, ScaleInvarianceInNumerator) {
  // TAR/CAR are linear in their numerator: unit changes preserve order.
  const double a = TimeAccuracyRatio(Seconds(3.0), 0.6);
  const double b = TimeAccuracyRatio(Seconds(4.0), 0.7);
  EXPECT_EQ(a < b, TimeAccuracyRatio(Seconds(3000.0), 0.6) <
                       TimeAccuracyRatio(Seconds(4000.0), 0.7));
}

TEST(Metrics, RejectInvalidAccuracy) {
  EXPECT_THROW(TimeAccuracyRatio(Seconds(1.0), 0.0), CheckError);
  EXPECT_THROW(TimeAccuracyRatio(Seconds(1.0), -0.1), CheckError);
  EXPECT_THROW(TimeAccuracyRatio(Seconds(1.0), 1.1), CheckError);
  EXPECT_THROW(CostAccuracyRatio(Usd(1.0), 0.0), CheckError);
}

TEST(Metrics, RejectNegativeNumerator) {
  EXPECT_THROW(TimeAccuracyRatio(Seconds(-1.0), 0.5), CheckError);
  EXPECT_THROW(CostAccuracyRatio(Usd(-0.01), 0.5), CheckError);
}

TEST(ExpectedValue, ZeroRateIsIdentity) {
  EXPECT_DOUBLE_EQ(
      ExpectedSecondsUnderInterruption(Seconds(1234.5), RatePerHour(0.0))
          .value(),
      1234.5);
  EXPECT_DOUBLE_EQ(ExpectedCostUnderInterruption(Usd(2.5), Seconds(1234.5),
                                                 RatePerHour(0.0))
                       .value(),
                   2.5);
  EXPECT_DOUBLE_EQ(
      ExpectedSecondsUnderInterruption(Seconds(0.0), RatePerHour(5.0)).value(),
      0.0);
}

TEST(ExpectedValue, MatchesClosedForm) {
  // E[T] = (e^{lambda t} - 1) / lambda for restart-from-scratch under
  // Poisson interruptions. One interruption/hour over a 30-minute run:
  // lambda t = 0.5, so E[T] = (e^0.5 - 1) * 3600.
  const double lambda = 1.0 / 3600.0;
  const double t = 1800.0;
  EXPECT_NEAR(
      ExpectedSecondsUnderInterruption(Seconds(t), RatePerHour(1.0)).value(),
      (std::exp(lambda * t) - 1.0) / lambda, 1e-6);
  // Cost inflates by the same time ratio (the fleet is billed while
  // redoing lost work).
  const double expected_s =
      ExpectedSecondsUnderInterruption(Seconds(t), RatePerHour(1.0)).value();
  EXPECT_NEAR(
      ExpectedCostUnderInterruption(Usd(1.0), Seconds(t), RatePerHour(1.0))
          .value(),
      expected_s / t, 1e-9);
}

TEST(ExpectedValue, MonotoneInRateAndTime) {
  // More interruptions or a longer nominal run can only inflate E[T], and
  // superlinearly: doubling t more than doubles E[T] at a fixed rate.
  EXPECT_GT(ExpectedSecondsUnderInterruption(Seconds(600.0), RatePerHour(2.0)),
            ExpectedSecondsUnderInterruption(Seconds(600.0), RatePerHour(1.0)));
  EXPECT_GT(ExpectedSecondsUnderInterruption(Seconds(600.0), RatePerHour(1.0)),
            Seconds(600.0));
  EXPECT_GT(
      ExpectedSecondsUnderInterruption(Seconds(1200.0), RatePerHour(6.0)),
      2.0 * ExpectedSecondsUnderInterruption(Seconds(600.0), RatePerHour(6.0)));
}

TEST(ExpectedValue, RatiosInflateWithRisk) {
  // At rate 0 the expected ratio reduces to the plain CAR.
  EXPECT_DOUBLE_EQ(ExpectedCostAccuracyRatio(Usd(0.57), Seconds(3600.0), 1.0,
                                             RatePerHour(0.0)),
                   CostAccuracyRatio(Usd(0.57), 1.0));
  EXPECT_GT(ExpectedCostAccuracyRatio(Usd(1.0), Seconds(3600.0), 0.5,
                                      RatePerHour(2.0)),
            CostAccuracyRatio(Usd(1.0), 0.5));
}

TEST(ExpectedValue, RejectsBadArguments) {
  EXPECT_THROW(
      ExpectedSecondsUnderInterruption(Seconds(-1.0), RatePerHour(1.0)),
      CheckError);
  EXPECT_THROW(
      ExpectedSecondsUnderInterruption(Seconds(1.0), RatePerHour(-0.5)),
      CheckError);
  EXPECT_THROW(
      ExpectedCostUnderInterruption(Usd(-1.0), Seconds(1.0), RatePerHour(1.0)),
      CheckError);
  EXPECT_THROW(
      ExpectedCostUnderInterruption(Usd(1.0), Seconds(-1.0), RatePerHour(1.0)),
      CheckError);
  EXPECT_THROW(
      ExpectedCostAccuracyRatio(Usd(1.0), Seconds(1.0), 0.0, RatePerHour(1.0)),
      CheckError);
}

}  // namespace
}  // namespace ccperf::core
