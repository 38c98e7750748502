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

TEST(Stats, MinOf) {
  const std::vector<double> v{4.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(MinOf(v), -1.0);
  EXPECT_THROW(MinOf({}), CheckError);
}

TEST(Stats, MeanOf) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(MeanOf(v), 2.5);
}

/// SelectQuantiles for one q, on a copy of `values`.
double Quantile(std::vector<double> values, double q) {
  return SelectQuantiles(values, std::span<const double>(&q, 1)).front();
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

      std::vector<double> scratch = values;
      const std::vector<double> got = SelectQuantiles(scratch, qs);
      ASSERT_EQ(got.size(), qs.size());
      for (std::size_t k = 0; k < qs.size(); ++k) {
        const double want = SortedQuantile(values, qs[k]);
        SCOPED_TRACE(shape + ", n=" + std::to_string(n) +
                     ", q=" + std::to_string(qs[k]));
        EXPECT_EQ(Bits(got[k]), Bits(want));
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
  std::vector<double> scratch = v;
  EXPECT_THROW((void)SelectQuantiles(scratch, unsorted), CheckError);
  EXPECT_THROW((void)SelectQuantiles(scratch, below), CheckError);
  EXPECT_THROW((void)SelectQuantiles(scratch, above), CheckError);
  EXPECT_THROW((void)SelectQuantiles({}, fine), CheckError);
  EXPECT_TRUE(SelectQuantiles(scratch, {}).empty());
}

}  // namespace
}  // namespace ccperf
