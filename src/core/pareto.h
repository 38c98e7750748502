// Tri-objective Pareto frontier over (time, cost, accuracy) points:
// minimize time and cost while maximizing accuracy (paper §3.4, Figs 9-10,
// with both T' and C' binding).
//
// This is the straightforward O(n²) all-pairs reference. Production
// frontiers run on the O(n log n) sorted-sweep filters in
// core/pareto_sweep.h; this one stays as the differential oracle the 3-D
// sweep is proven against, and as the frontier pareto_explorer and
// bench_ext_enumeration_scale print beside it. Its semantics are pinned:
//   - exact duplicate points keep the FIRST occurrence in input order;
//   - any NaN objective CHECK-fails (NaN compares false against everything,
//     so it would never be dominated and would silently win the frontier).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ccperf::core {

/// Tri-objective frontier: minimize both `time` and `cost` while maximizing
/// `accuracy` — the consumer's real decision space when T' and C' both
/// bind. Indices of non-dominated points, in input order; exact duplicate
/// triples keep the first occurrence only. NaN CHECK-fails. O(n²).
std::vector<std::size_t> ParetoFrontier3(std::span<const double> time,
                                         std::span<const double> cost,
                                         std::span<const double> accuracy);

/// Tri-objective dominance: a no worse than b in all three, better in one.
/// An exact duplicate does NOT dominate (every inequality ties) — duplicate
/// collapsing is the frontier's keep-first rule, not dominance. Any NaN
/// coordinate CHECK-fails.
bool Dominates3(double time_a, double cost_a, double acc_a, double time_b,
                double cost_b, double acc_b);

}  // namespace ccperf::core
