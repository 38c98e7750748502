// Differential proof of the sorted-sweep Pareto filters (core/pareto_sweep.h)
// against the straightforward oracles (core/pareto.h): ~200 seeded point
// clouds across adversarial regimes and 12,000-point clouds that run the 3-D
// pre-pass far past its window, index-set equality everywhere, plus unit
// coverage of the incremental staircase and the streaming-compaction
// identity the enumeration engine relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/pareto.h"
#include "core/pareto_sweep.h"

namespace ccperf::core {
namespace {

struct Cloud {
  std::vector<double> time;
  std::vector<double> cost;
  std::vector<double> accuracy;
};

// Point-cloud regimes the sweep must survive:
//   uniform          — generic random positions
//   all-dominated    — one super point, everything else strictly worse
//   all-frontier     — an anti-chain: every point Pareto-optimal
//   duplicate-heavy  — coordinates drawn from a tiny grid, many exact ties
//   axis-collinear   — one or two axes held constant across the cloud
enum class Regime : int {
  kUniform = 0,
  kAllDominated,
  kAllFrontier,
  kDuplicateHeavy,
  kAxisCollinear,
};

/// `points` == 0 draws a size of 30-199 from `rng`.
Cloud MakeCloud(Regime regime, Rng& rng, std::size_t points = 0) {
  const std::size_t n = points > 0 ? points : 30 + rng.NextIndex(170);
  Cloud cloud;
  cloud.time.resize(n);
  cloud.cost.resize(n);
  cloud.accuracy.resize(n);
  switch (regime) {
    case Regime::kUniform:
      for (std::size_t i = 0; i < n; ++i) {
        cloud.time[i] = rng.NextDouble() * 10.0;
        cloud.cost[i] = rng.NextDouble() * 100.0;
        cloud.accuracy[i] = rng.NextDouble();
      }
      break;
    case Regime::kAllDominated:
      // Index 0 dominates everything: smallest time/cost, best accuracy.
      cloud.time[0] = 0.0;
      cloud.cost[0] = 0.0;
      cloud.accuracy[0] = 1.0;
      for (std::size_t i = 1; i < n; ++i) {
        cloud.time[i] = 0.1 + rng.NextDouble();
        cloud.cost[i] = 0.1 + rng.NextDouble();
        cloud.accuracy[i] = rng.NextDouble() * 0.9;
      }
      break;
    case Regime::kAllFrontier:
      // 2-D anti-chain in (time, cost) at constant accuracy: time strictly
      // ascending while cost strictly descends, so no point dominates any
      // other. Shuffle so input order is not the sorted order.
      for (std::size_t i = 0; i < n; ++i) {
        cloud.time[i] = static_cast<double>(i);
        cloud.cost[i] = static_cast<double>(n - i);
        cloud.accuracy[i] = 0.5;
      }
      for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = rng.NextIndex(i);
        std::swap(cloud.time[i - 1], cloud.time[j]);
        std::swap(cloud.cost[i - 1], cloud.cost[j]);
      }
      break;
    case Regime::kDuplicateHeavy:
      for (std::size_t i = 0; i < n; ++i) {
        cloud.time[i] = static_cast<double>(rng.NextIndex(4));
        cloud.cost[i] = static_cast<double>(rng.NextIndex(4));
        cloud.accuracy[i] = static_cast<double>(rng.NextIndex(4)) / 4.0;
      }
      break;
    case Regime::kAxisCollinear: {
      // Pin one or two axes to a constant; survivors are decided by the
      // remaining axis/axes only — the degenerate case where tie-breaking
      // rules do all the work.
      const std::uint64_t pinned = 1 + rng.NextIndex(2);  // 1 or 2 axes
      for (std::size_t i = 0; i < n; ++i) {
        cloud.time[i] = 3.0;
        cloud.cost[i] = pinned == 2 ? 7.0 : rng.NextDouble() * 10.0;
        cloud.accuracy[i] = static_cast<double>(rng.NextIndex(8)) / 8.0;
      }
      break;
    }
  }
  return cloud;
}

struct SweepCase {
  int regime = 0;
  std::uint64_t seed = 0;
  std::size_t points = 0;  // 0: MakeCloud draws 30-199 from the seed
};

// CTest names end with this text; a drawn-size case prints as the
// (regime, seed) pair alone.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "(" << c.regime << ", " << c.seed;
  if (c.points > 0) *os << ", " << c.points;
  *os << ")";
}

/// Every regime x seeds 0-19 at drawn sizes, then the regimes that stress
/// the 3-D pre-pass at 12,000 points: an anti-chain (no row covers another,
/// so the 32-row window fills and every row reaches the sort) and a
/// tie-heavy grid (almost every row dropped by the window).
std::vector<SweepCase> SweepCases() {
  std::vector<SweepCase> cases;
  for (int regime = 0; regime < 5; ++regime) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      cases.push_back({regime, seed});
    }
  }
  for (const Regime regime : {Regime::kAllFrontier, Regime::kDuplicateHeavy}) {
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
      cases.push_back({static_cast<int>(regime), seed, 12000});
    }
  }
  return cases;
}

class SweepVsOracle : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SweepVsOracle, FrontierIndexSetsIdentical3D) {
  const SweepCase& c = GetParam();
  Rng rng(0xABC0 + c.seed * 7919 + static_cast<std::uint64_t>(c.regime));
  const Cloud cloud = MakeCloud(static_cast<Regime>(c.regime), rng, c.points);
  const auto oracle =
      ParetoFrontier3(cloud.time, cloud.cost, cloud.accuracy);
  const auto sweep =
      SweepParetoFrontier3(cloud.time, cloud.cost, cloud.accuracy);
  // Both are in ascending input-index order, so index-set equality is
  // vector equality.
  EXPECT_EQ(sweep, oracle);
}

TEST_P(SweepVsOracle, FrontierIdentical2D) {
  const SweepCase& c = GetParam();
  Rng rng(0xDEF0 + c.seed * 104729 + static_cast<std::uint64_t>(c.regime));
  const Cloud cloud = MakeCloud(static_cast<Regime>(c.regime), rng, c.points);
  // 2-D over (cost, accuracy) and (time, accuracy): same order contract
  // (descending accuracy), so full vector equality, not just set equality.
  EXPECT_EQ(SweepParetoFrontier(cloud.cost, cloud.accuracy),
            ParetoFrontier(cloud.cost, cloud.accuracy));
  EXPECT_EQ(SweepParetoFrontier(cloud.time, cloud.accuracy),
            ParetoFrontier(cloud.time, cloud.accuracy));
}

std::string RegimeParamName(const ::testing::TestParamInfo<SweepCase>& info) {
  static const char* const kNames[] = {"Uniform", "AllDominated",
                                       "AllFrontier", "DuplicateHeavy",
                                       "AxisCollinear"};
  const SweepCase& c = info.param;
  std::string name = std::string(kNames[c.regime]) + "Seed" +
                     std::to_string(c.seed);
  if (c.points > 0) name += "Points" + std::to_string(c.points);
  return name;
}

INSTANTIATE_TEST_SUITE_P(Regimes, SweepVsOracle,
                         ::testing::ValuesIn(SweepCases()), RegimeParamName);

TEST(SweepPrePass, DuplicatesOfEvictedRowsKeepFirst) {
  // A 12,000-point anti-chain: no row covers another, so each survivor
  // pushes an older one out of the 32-row window. Exact duplicates of the
  // first 64 rows, appended at the end, find no covering row there and can
  // only be dropped by the sort's keep-first tie-break.
  Rng rng(0x5EED);
  Cloud cloud = MakeCloud(Regime::kAllFrontier, rng, 12000);
  for (std::size_t i = 0; i < 64; ++i) {
    cloud.time.push_back(cloud.time[i]);
    cloud.cost.push_back(cloud.cost[i]);
    cloud.accuracy.push_back(cloud.accuracy[i]);
  }
  const auto sweep =
      SweepParetoFrontier3(cloud.time, cloud.cost, cloud.accuracy);
  EXPECT_EQ(sweep, ParetoFrontier3(cloud.time, cloud.cost, cloud.accuracy));
  ASSERT_EQ(sweep.size(), 12000u);  // every original kept, every copy dropped
  EXPECT_EQ(sweep.back(), 11999u);
}

// --- streaming compaction identity ------------------------------------------

TEST(SweepStreaming, BlockwiseCompactionEqualsOneShot) {
  // frontier(frontier(A) ∪ B) == frontier(A ∪ B) — the identity that lets
  // EnumerateFrontier keep memory O(frontier + block). Checked across
  // regimes, block sizes and seeds, with ids mapped back to cloud indices.
  for (int regime = 0; regime < 5; ++regime) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Rng rng(0xB10C + seed * 31 + static_cast<std::uint64_t>(regime));
      const Cloud cloud = MakeCloud(static_cast<Regime>(regime), rng);
      const std::size_t n = cloud.time.size();
      for (const std::size_t block : {1UL, 7UL, 64UL}) {
        std::vector<std::size_t> ids;  // surviving cloud indices, ascending
        std::vector<double> t, c, a;
        for (std::size_t begin = 0; begin < n; begin += block) {
          const std::size_t end = std::min(n, begin + block);
          for (std::size_t i = begin; i < end; ++i) {
            ids.push_back(i);
            t.push_back(cloud.time[i]);
            c.push_back(cloud.cost[i]);
            a.push_back(cloud.accuracy[i]);
          }
          const auto keep = SweepParetoFrontier3(t, c, a);
          for (std::size_t k = 0; k < keep.size(); ++k) {
            ids[k] = ids[keep[k]];
            t[k] = t[keep[k]];
            c[k] = c[keep[k]];
            a[k] = a[keep[k]];
          }
          ids.resize(keep.size());
          t.resize(keep.size());
          c.resize(keep.size());
          a.resize(keep.size());
        }
        EXPECT_EQ(ids,
                  ParetoFrontier3(cloud.time, cloud.cost, cloud.accuracy))
            << "regime=" << regime << " seed=" << seed << " block=" << block;
      }
    }
  }
}

// --- ParetoStaircase2 unit coverage -----------------------------------------

TEST(Staircase, InsertCoverEvict) {
  ParetoStaircase2 staircase;
  EXPECT_TRUE(staircase.Empty());
  EXPECT_TRUE(staircase.Insert(10.0, 0.5, 0));
  EXPECT_TRUE(staircase.Insert(20.0, 0.8, 1));   // dearer but better: kept
  EXPECT_FALSE(staircase.Insert(25.0, 0.7, 2));  // covered by (20, 0.8)
  EXPECT_FALSE(staircase.Insert(20.0, 0.8, 3));  // exact duplicate: rejected
  EXPECT_EQ(staircase.Size(), 2u);

  // (5, 0.9) covers both current entries: they are evicted.
  EXPECT_TRUE(staircase.Insert(5.0, 0.9, 4));
  ASSERT_EQ(staircase.Size(), 1u);
  EXPECT_EQ(staircase.Entries()[0].id, 4u);

  EXPECT_TRUE(staircase.Covers(6.0, 0.9));
  EXPECT_TRUE(staircase.Covers(5.0, 0.9));
  EXPECT_FALSE(staircase.Covers(4.0, 0.1));  // cheaper than everything held
  EXPECT_FALSE(staircase.Covers(6.0, 0.95));
}

TEST(Staircase, EntriesStayOrderedAndBestAccuracyQueriesWork) {
  ParetoStaircase2 staircase;
  Rng rng(77);
  for (std::uint64_t i = 0; i < 500; ++i) {
    staircase.Insert(rng.NextDouble() * 100.0, rng.NextDouble(), i);
  }
  const auto& entries = staircase.Entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].objective, entries[i].objective);
    EXPECT_LT(entries[i - 1].accuracy, entries[i].accuracy);  // staircase
  }
  EXPECT_EQ(staircase.BestAccuracyAt(-1.0),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(staircase.BestAccuracyAt(1e9), entries.back().accuracy);
  // Spot-check: BestAccuracyAt agrees with a linear scan.
  for (const double q : {0.5, 10.0, 42.0, 99.0}) {
    double expected = -std::numeric_limits<double>::infinity();
    for (const auto& e : entries) {
      if (e.objective <= q) expected = std::max(expected, e.accuracy);
    }
    EXPECT_EQ(staircase.BestAccuracyAt(q), expected) << q;
  }
}

TEST(Staircase, KeepFirstOnEqualPair) {
  ParetoStaircase2 staircase;
  EXPECT_TRUE(staircase.Insert(1.0, 0.5, 10));
  EXPECT_FALSE(staircase.Insert(1.0, 0.5, 11));  // later equal pair rejected
  ASSERT_EQ(staircase.Size(), 1u);
  EXPECT_EQ(staircase.Entries()[0].id, 10u);
}

TEST(Staircase, NaNThrows) {
  ParetoStaircase2 staircase;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(staircase.Insert(nan, 0.5, 0), CheckError);
  EXPECT_THROW(staircase.Insert(1.0, nan, 0), CheckError);
  EXPECT_TRUE(staircase.Empty());
}

// --- sweep edge cases --------------------------------------------------------

TEST(Sweep, EmptyAndMismatchedInputs) {
  const std::vector<double> empty;
  EXPECT_TRUE(SweepParetoFrontier3(empty, empty, empty).empty());
  EXPECT_TRUE(SweepParetoFrontier(empty, empty).empty());
  const std::vector<double> two{1, 2};
  const std::vector<double> three{1, 2, 3};
  EXPECT_THROW(SweepParetoFrontier3(two, two, three), CheckError);
  EXPECT_THROW(SweepParetoFrontier(two, three), CheckError);
}

TEST(Sweep, NaNThrows) {
  const std::vector<double> ok{1, 2};
  const std::vector<double> bad{1, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(SweepParetoFrontier3(bad, ok, ok), CheckError);
  EXPECT_THROW(SweepParetoFrontier3(ok, bad, ok), CheckError);
  EXPECT_THROW(SweepParetoFrontier3(ok, ok, bad), CheckError);
  EXPECT_THROW(SweepParetoFrontier(bad, ok), CheckError);
  EXPECT_THROW(SweepParetoFrontier(ok, bad), CheckError);
}

TEST(Sweep, DuplicatesKeepFirstOccurrence3D) {
  const std::vector<double> t{2, 2, 2, 1};
  const std::vector<double> c{3, 3, 3, 9};
  const std::vector<double> a{0.7, 0.7, 0.7, 0.7};
  EXPECT_EQ(SweepParetoFrontier3(t, c, a),
            (std::vector<std::size_t>{0, 3}));
}

TEST(Sweep, InfinityIsAllowed) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> t{1, 1};
  const std::vector<double> c{1, inf};
  const std::vector<double> a{0.9, 0.9};
  EXPECT_EQ(SweepParetoFrontier3(t, c, a), (std::vector<std::size_t>{0}));
}

}  // namespace
}  // namespace ccperf::core
