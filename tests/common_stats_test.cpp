#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace ccperf {
namespace {

TEST(Stats, SummarizeBasics) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  const SampleStats s = Summarize(v);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_NEAR(s.stddev, 0.81649658, 1e-6);
}

TEST(Stats, SummarizeSingleValue) {
  const std::vector<double> v{5.0};
  const SampleStats s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, SummarizeEmptyThrows) {
  EXPECT_THROW(Summarize({}), CheckError);
}

TEST(Stats, MinOf) {
  const std::vector<double> v{4.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(MinOf(v), -1.0);
  EXPECT_THROW(MinOf({}), CheckError);
}

TEST(Stats, MeanOf) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(MeanOf(v), 2.5);
}

TEST(Stats, QuantileEndpoints) {
  std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 40.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.5);
}

TEST(Stats, QuantileMedianOddCount) {
  std::vector<double> v{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 5.0);
}

TEST(Stats, QuantileRejectsBadArgs) {
  std::vector<double> v{1.0};
  EXPECT_THROW(Quantile(v, -0.1), CheckError);
  EXPECT_THROW(Quantile(v, 1.1), CheckError);
  EXPECT_THROW(Quantile({}, 0.5), CheckError);
}

// Sort-and-interpolate, the textbook definition the selection must match.
double SortedQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Stats, QuantilesMatchSortAndInterpolateBitwise) {
  // Repeated qs select inside the range the previous q left behind.
  const std::vector<double> qs{0.0, 0.5, 0.5, 0.95, 0.99, 0.99, 1.0};
  const std::vector<std::pair<std::string,
                              std::function<double(Rng&, std::size_t,
                                                   std::size_t)>>>
      shapes = {
          {"uniform", [](Rng& r, std::size_t, std::size_t) {
             return r.NextDouble() * 1e3;
           }},
          {"heavy ties", [](Rng& r, std::size_t, std::size_t) {
             return static_cast<double>(r.NextIndex(4)) * 0.25;
           }},
          {"sorted", [](Rng&, std::size_t i, std::size_t) {
             return 0.5 * static_cast<double>(i);
           }},
          {"reverse sorted", [](Rng&, std::size_t i, std::size_t n) {
             return 0.5 * static_cast<double>(n - i);
           }},
      };
  for (const std::size_t n : {1u, 2u, 3u, 10u, 1000u, 100003u}) {
    for (const auto& [shape, draw] : shapes) {
      Rng rng(2020 + n);
      std::vector<double> values(n);
      for (std::size_t i = 0; i < n; ++i) values[i] = draw(rng, i, n);
      const std::vector<double> original = values;

      const std::vector<double> got = Quantiles(values, qs);
      EXPECT_EQ(values, original) << "Quantiles must not touch its input";
      std::vector<double> scratch = values;
      const std::vector<double> in_place = SelectQuantiles(scratch, qs);
      ASSERT_EQ(got.size(), qs.size());
      ASSERT_EQ(in_place.size(), qs.size());
      for (std::size_t k = 0; k < qs.size(); ++k) {
        const double want = SortedQuantile(values, qs[k]);
        SCOPED_TRACE(shape + ", n=" + std::to_string(n) +
                     ", q=" + std::to_string(qs[k]));
        EXPECT_EQ(Bits(got[k]), Bits(want));
        EXPECT_EQ(Bits(in_place[k]), Bits(want));
        EXPECT_EQ(Bits(Quantile(values, qs[k])), Bits(want));
      }
    }
  }
}

TEST(Stats, QuantilesRejectBadArgs) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  const std::vector<double> unsorted{0.5, 0.25};
  const std::vector<double> below{-0.1, 0.5};
  const std::vector<double> above{0.5, 1.1};
  const std::vector<double> fine{0.5};
  EXPECT_THROW((void)Quantiles(v, unsorted), CheckError);
  EXPECT_THROW((void)Quantiles(v, below), CheckError);
  EXPECT_THROW((void)Quantiles(v, above), CheckError);
  EXPECT_THROW((void)Quantiles({}, fine), CheckError);
  std::vector<double> scratch = v;
  EXPECT_THROW((void)SelectQuantiles(scratch, unsorted), CheckError);
  EXPECT_TRUE(Quantiles(v, {}).empty());
}

}  // namespace
}  // namespace ccperf
