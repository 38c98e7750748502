#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/check.h"
#include "common/rng.h"
#include "core/pareto.h"
#include "core/pareto_sweep.h"
#include "pareto_oracle.h"

namespace ccperf::core {
namespace {

TEST(Dominates3, Definition) {
  EXPECT_TRUE(Dominates3(1, 1, 0.9, 2, 2, 0.8));
  EXPECT_TRUE(Dominates3(1, 1, 0.9, 1, 1, 0.8));
  EXPECT_TRUE(Dominates3(1, 1, 0.9, 1, 2, 0.9));
  EXPECT_FALSE(Dominates3(1, 1, 0.9, 1, 1, 0.9));  // identical
  EXPECT_FALSE(Dominates3(1, 2, 0.9, 2, 1, 0.9));  // trade-off in cost
  EXPECT_FALSE(Dominates3(1, 1, 0.7, 2, 2, 0.9));  // trade-off in accuracy
}

TEST(Pareto3, HandCase) {
  // (time, cost, acc):
  //   A(1, 1, .5)  B(2, 2, .9)  C(3, 3, .9)  D(2, 1, .5)  E(1, 1, .5)
  // C dominated by B; E duplicate of A; D dominated by A (same acc, worse
  // time). Frontier: A, B.
  const std::vector<double> t{1, 2, 3, 2, 1};
  const std::vector<double> c{1, 2, 3, 1, 1};
  const std::vector<double> a{0.5, 0.9, 0.9, 0.5, 0.5};
  const auto frontier = ParetoFrontier3(t, c, a);
  const std::set<std::size_t> got(frontier.begin(), frontier.end());
  EXPECT_EQ(got, (std::set<std::size_t>{0, 1}));
}

TEST(Pareto3, TimeVsCostTradeoffBothSurvive) {
  // Same accuracy, one fast-and-expensive, one slow-and-cheap.
  const std::vector<double> t{1, 10};
  const std::vector<double> c{10, 1};
  const std::vector<double> a{0.8, 0.8};
  EXPECT_EQ(ParetoFrontier3(t, c, a).size(), 2u);
}

TEST(Pareto3, SupersetOfTwoDimensionalFrontiers) {
  // Every point on the 2-D (time, acc) frontier is also 3-D non-dominated.
  Rng rng(9);
  const std::size_t n = 120;
  std::vector<double> t(n), c(n), a(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = rng.NextDouble() * 10.0;
    c[i] = rng.NextDouble() * 100.0;
    a[i] = static_cast<double>(rng.NextIndex(10)) / 10.0;
  }
  const auto f3 = ParetoFrontier3(t, c, a);
  const std::set<std::size_t> on3(f3.begin(), f3.end());
  for (std::size_t idx : SweepParetoFrontier(t, a)) {
    EXPECT_TRUE(on3.contains(idx)) << idx;
  }
  for (std::size_t idx : SweepParetoFrontier(c, a)) {
    EXPECT_TRUE(on3.contains(idx)) << idx;
  }
}

class Pareto3Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Pareto3Property, MinimalAndComplete) {
  Rng rng(GetParam());
  const std::size_t n = 40 + rng.NextIndex(100);
  std::vector<double> t(n), c(n), a(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = static_cast<double>(rng.NextIndex(20));
    c[i] = static_cast<double>(rng.NextIndex(20));
    a[i] = static_cast<double>(rng.NextIndex(10)) / 10.0;
  }
  const auto frontier = ParetoFrontier3(t, c, a);
  ASSERT_FALSE(frontier.empty());
  const std::set<std::size_t> on(frontier.begin(), frontier.end());
  for (std::size_t x : frontier) {
    for (std::size_t y : frontier) {
      if (x != y) {
        EXPECT_FALSE(Dominates3(t[x], c[x], a[x], t[y], c[y], a[y]));
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (on.contains(i)) continue;
    bool covered = false;
    for (std::size_t f : frontier) {
      if (Dominates3(t[f], c[f], a[f], t[i], c[i], a[i]) ||
          (t[f] == t[i] && c[f] == c[i] && a[f] == a[i])) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Pareto3Property,
                         ::testing::Values(1, 7, 42, 99, 1234));

// --- pinned tie/duplicate semantics (keep-first-occurrence) -----------------

TEST(Dominates3, ExactDuplicateDoesNotDominate) {
  // Dominance needs a strict improvement somewhere; an identical triple has
  // none. Duplicate collapsing is the frontier's keep-first rule instead.
  EXPECT_FALSE(Dominates3(2, 3, 0.7, 2, 3, 0.7));
  EXPECT_FALSE(Dominates3(0, 0, 0, 0, 0, 0));
}

TEST(Dominates3, TwoAxisTieOneAxisStrictDominates) {
  EXPECT_TRUE(Dominates3(1, 1, 0.9, 1, 1, 0.8));   // only accuracy strict
  EXPECT_TRUE(Dominates3(1, 1, 0.9, 1, 2, 0.9));   // only cost strict
  EXPECT_TRUE(Dominates3(1, 1, 0.9, 2, 1, 0.9));   // only time strict
}

TEST(Pareto3, DuplicatesKeepFirstOccurrence) {
  // Three copies of the same efficient point interleaved with a dominated
  // one: only the FIRST copy (index 0) survives.
  const std::vector<double> t{1, 1, 5, 1};
  const std::vector<double> c{1, 1, 5, 1};
  const std::vector<double> a{0.9, 0.9, 0.5, 0.9};
  EXPECT_EQ(ParetoFrontier3(t, c, a), (std::vector<std::size_t>{0}));
}

TEST(Pareto3, DistinctTiesAllSurvive) {
  // Pairwise ties in two axes with opposing trade-offs in the third: no
  // dominance anywhere, every point stays.
  const std::vector<double> t{1, 1, 1};
  const std::vector<double> c{1, 2, 3};
  const std::vector<double> a{0.5, 0.6, 0.7};
  EXPECT_EQ(ParetoFrontier3(t, c, a).size(), 3u);
}

TEST(Pareto2, DuplicatesKeepLowestIndex) {
  // Exact duplicate (objective, accuracy) pairs: the representative is
  // pinned to the lowest input index regardless of input order.
  const std::vector<double> obj{3.0, 3.0, 3.0, 1.0};
  const std::vector<double> acc{0.9, 0.9, 0.9, 0.2};
  const auto frontier = SweepParetoFrontier(obj, acc);
  ASSERT_EQ(frontier.size(), 2u);
  EXPECT_EQ(frontier[0], 0u);  // first duplicate, not 1 or 2
  EXPECT_EQ(frontier[1], 3u);
}

// --- NaN rejection ----------------------------------------------------------

TEST(Dominates3, NaNObjectiveThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Dominates3(nan, 1, 0.5, 1, 1, 0.5), CheckError);
  EXPECT_THROW(Dominates3(1, 1, 0.5, 1, nan, 0.5), CheckError);
  EXPECT_THROW(Dominates3(1, 1, nan, 1, 1, 0.5), CheckError);
}

TEST(Dominates, NaNObjectiveThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Dominates(nan, 0.5, 1, 0.5), CheckError);
  EXPECT_THROW(Dominates(1, 0.5, 1, nan), CheckError);
}

TEST(Pareto3, NaNPointThrowsInsteadOfWinning) {
  // A NaN compares false against everything, so it can never be dominated —
  // without the guard it would silently join every frontier.
  const std::vector<double> ok{1, 2};
  const std::vector<double> acc{0.5, 0.9};
  const std::vector<double> bad{std::numeric_limits<double>::quiet_NaN(), 2};
  EXPECT_THROW(ParetoFrontier3(bad, ok, acc), CheckError);
  EXPECT_THROW(ParetoFrontier3(ok, bad, acc), CheckError);
  EXPECT_THROW(ParetoFrontier3(ok, ok, bad), CheckError);
}

TEST(Pareto2, NaNPointThrows) {
  const std::vector<double> ok{1, 2};
  const std::vector<double> acc{0.5, 0.6};
  const std::vector<double> bad{std::numeric_limits<double>::quiet_NaN(), 2};
  EXPECT_THROW(SweepParetoFrontier(bad, acc), CheckError);
  EXPECT_THROW(SweepParetoFrontier(ok, bad), CheckError);
}

TEST(Pareto3, InfinityIsAllowed) {
  // Infinities order normally and must NOT be rejected: an infeasible
  // (infinite-cost) point is simply dominated.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> t{1, 1};
  const std::vector<double> c{1, inf};
  const std::vector<double> a{0.9, 0.9};
  EXPECT_EQ(ParetoFrontier3(t, c, a), (std::vector<std::size_t>{0}));
}

TEST(Pareto3, RejectsMismatchedSizes) {
  const std::vector<double> two{1, 2};
  const std::vector<double> three{1, 2, 3};
  EXPECT_THROW(ParetoFrontier3(two, two, three), CheckError);
}

TEST(Pareto3, EmptyInput) {
  EXPECT_TRUE(ParetoFrontier3({}, {}, {}).empty());
}

}  // namespace
}  // namespace ccperf::core
