// core::SweepParetoFrontier, the 2-D frontier filter, on hand cases and
// on seeded clouds checked against the all-pairs oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/pareto_sweep.h"
#include "pareto_oracle.h"

namespace ccperf::core {
namespace {

TEST(Dominates, Definition) {
  EXPECT_TRUE(Dominates(1.0, 0.9, 2.0, 0.8));   // better in both
  EXPECT_TRUE(Dominates(1.0, 0.9, 1.0, 0.8));   // equal obj, better acc
  EXPECT_TRUE(Dominates(1.0, 0.9, 2.0, 0.9));   // equal acc, better obj
  EXPECT_FALSE(Dominates(1.0, 0.9, 1.0, 0.9));  // identical
  EXPECT_FALSE(Dominates(1.0, 0.8, 2.0, 0.9));  // trade-off
  EXPECT_FALSE(Dominates(2.0, 0.9, 1.0, 0.8));  // worse obj
}

TEST(Pareto, HandCase) {
  // (obj, acc): A(1, .5) B(2, .7) C(3, .6) D(2, .9) E(4, .9)
  const std::vector<double> obj{1, 2, 3, 2, 4};
  const std::vector<double> acc{0.5, 0.7, 0.6, 0.9, 0.9};
  const auto frontier = SweepParetoFrontier(obj, acc);
  // D dominates B? D(2,.9) vs B(2,.7): yes. C dominated by B/D. E dominated
  // by D. Frontier: D (acc .9 obj 2), A (acc .5 obj 1).
  const std::set<std::size_t> got(frontier.begin(), frontier.end());
  EXPECT_EQ(got, (std::set<std::size_t>{0, 3}));
}

TEST(Pareto, SortedByDescendingAccuracy) {
  const std::vector<double> obj{1, 2, 3};
  const std::vector<double> acc{0.1, 0.5, 0.9};
  const auto frontier = SweepParetoFrontier(obj, acc);
  ASSERT_EQ(frontier.size(), 3u);
  EXPECT_EQ(frontier[0], 2u);
  EXPECT_EQ(frontier[2], 0u);
}

TEST(Pareto, SinglePoint) {
  const std::vector<double> obj{5.0};
  const std::vector<double> acc{0.5};
  EXPECT_EQ(SweepParetoFrontier(obj, acc).size(), 1u);
}

TEST(Pareto, EmptyInput) {
  EXPECT_TRUE(SweepParetoFrontier({}, {}).empty());
}

TEST(Pareto, DuplicatesKeepOneRepresentative) {
  const std::vector<double> obj{1, 1, 1};
  const std::vector<double> acc{0.5, 0.5, 0.5};
  EXPECT_EQ(SweepParetoFrontier(obj, acc).size(), 1u);
}

TEST(Pareto, AllDominatedByOne) {
  const std::vector<double> obj{1, 2, 3, 4};
  const std::vector<double> acc{0.9, 0.8, 0.7, 0.6};
  const auto frontier = SweepParetoFrontier(obj, acc);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0], 0u);
}

TEST(Pareto, MismatchedSizesThrow) {
  const std::vector<double> obj{1.0};
  const std::vector<double> acc{0.5, 0.6};
  EXPECT_THROW(SweepParetoFrontier(obj, acc), CheckError);
}

// Property test: for random point clouds the frontier must (a) contain no
// internally dominated pair and (b) dominate or tie every excluded point.
class ParetoProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParetoProperty, FrontierIsMinimalAndComplete) {
  Rng rng(GetParam());
  const std::size_t n = 50 + rng.NextIndex(150);
  std::vector<double> obj(n), acc(n);
  for (std::size_t i = 0; i < n; ++i) {
    obj[i] = rng.NextDouble() * 100.0;
    // Quantize to force ties.
    acc[i] = static_cast<double>(rng.NextIndex(20)) / 20.0;
  }
  const auto frontier = SweepParetoFrontier(obj, acc);
  ASSERT_FALSE(frontier.empty());
  std::vector<std::size_t> ascending = frontier;
  std::sort(ascending.begin(), ascending.end());
  EXPECT_EQ(ascending, AllPairsFrontier(obj, acc));

  const std::set<std::size_t> on_frontier(frontier.begin(), frontier.end());
  for (std::size_t a : frontier) {
    for (std::size_t b : frontier) {
      if (a != b) {
        EXPECT_FALSE(Dominates(obj[a], acc[a], obj[b], acc[b]))
            << a << " dominates " << b;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (on_frontier.contains(i)) continue;
    bool covered = false;
    for (std::size_t f : frontier) {
      if (Dominates(obj[f], acc[f], obj[i], acc[i]) ||
          (obj[f] == obj[i] && acc[f] == acc[i])) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "point " << i << " neither on frontier nor "
                         << "dominated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace ccperf::core
