// The 2-D Pareto oracle that core::SweepParetoFrontier is checked against:
// all-pairs dominance over (objective minimized, accuracy maximized)
// points, with core::ParetoFrontier3's semantics. An exact duplicate does
// not dominate, the frontier keeps a duplicate's first occurrence, and a
// NaN CHECK-fails rather than silently surviving every comparison.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"

namespace ccperf::core {

/// True iff (obj_a, acc_a) is no worse than (obj_b, acc_b) in both
/// coordinates and strictly better in one.
inline bool Dominates(double obj_a, double acc_a, double obj_b, double acc_b) {
  CCPERF_CHECK(!std::isnan(obj_a) && !std::isnan(acc_a) &&
                   !std::isnan(obj_b) && !std::isnan(acc_b),
               "NaN objective in dominance comparison");
  return obj_a <= obj_b && acc_a >= acc_b && (obj_a < obj_b || acc_a > acc_b);
}

/// Indices of the points that no other point dominates and no lower index
/// duplicates, in input order. O(n²).
inline std::vector<std::size_t> AllPairsFrontier(
    std::span<const double> objective, std::span<const double> accuracy) {
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < objective.size(); ++i) {
    bool kept = true;
    for (std::size_t j = 0; j < objective.size() && kept; ++j) {
      const bool duplicate = j < i && objective[j] == objective[i] &&
                             accuracy[j] == accuracy[i];
      kept = !duplicate &&
             !Dominates(objective[j], accuracy[j], objective[i], accuracy[i]);
    }
    if (kept) frontier.push_back(i);
  }
  return frontier;
}

}  // namespace ccperf::core
