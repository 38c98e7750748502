// Incremental / sorted-sweep Pareto-dominance filters.
//
// core/pareto.h keeps the O(n²) all-pairs 3-D loop as a differential
// oracle; this header is the production engine behind every frontier in
// the repo:
//
//   ParetoStaircase2    — incremental 2-D frontier (minimize objective,
//                         maximize accuracy). Points stream in arbitrary
//                         order; each insert binary-searches the staircase
//                         (the frontier sorted by objective, accuracy
//                         strictly increasing with it), rejects covered
//                         points, and evicts newly dominated ones.
//                         Amortized O(log f) per insert, memory O(f).
//   SweepParetoFrontier — 2-D frontier of a point cloud via one sort +
//                         linear scan. O(n log n).
//   SweepParetoFrontier3— 3-D frontier (minimize time and cost, maximize
//                         accuracy). A linear pre-pass walks the points in
//                         input order and drops each one covered by a
//                         32-row move-to-front window of earlier survivors.
//                         The survivors are swept in (time, cost,
//                         -accuracy, index) order: no later point can
//                         dominate an earlier one, so a point survives iff
//                         the 2-D staircase over the already-processed
//                         (cost, accuracy) pairs does not cover it.
//                         O(n log n), memory O(frontier).
//
// Semantics are pinned to all-pairs oracles (core_pareto_sweep_test proves
// index-set equality with ParetoFrontier3 and with the 2-D oracle in
// tests/pareto_oracle.h on seeded clouds):
//   - duplicates keep the first occurrence in input order;
//   - a point equal to a kept point in every objective is dropped;
//   - any NaN objective CHECK-fails (a NaN would otherwise win every
//     comparison it appears in and silently poison the frontier).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ccperf::core {

/// Incremental bi-objective frontier: minimize `objective`, maximize
/// `accuracy`. Entries are held sorted by objective ascending; the
/// staircase invariant (accuracy strictly increasing with objective) makes
/// both the coverage query and the eviction range a binary search.
class ParetoStaircase2 {
 public:
  struct Entry {
    double objective = 0.0;
    double accuracy = 0.0;
    std::uint64_t id = 0;  // caller-supplied identity (input index, flat id)
  };

  /// Offer one point. Returns true and keeps it when no held entry covers
  /// it (objective <= and accuracy >=); entries the new point covers are
  /// evicted. Equal (objective, accuracy) pairs keep the first-inserted
  /// entry. NaN in either coordinate CHECK-fails.
  bool Insert(double objective, double accuracy, std::uint64_t id);

  /// True iff a held entry covers (objective <= obj, accuracy >= acc) —
  /// i.e. Insert would reject the point. Does not modify the staircase.
  [[nodiscard]] bool Covers(double objective, double accuracy) const;

  /// Current frontier, sorted by objective ascending (accuracy strictly
  /// ascending with it).
  [[nodiscard]] const std::vector<Entry>& Entries() const { return entries_; }

  [[nodiscard]] std::size_t Size() const { return entries_.size(); }
  [[nodiscard]] bool Empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

  /// Best accuracy among entries with objective <= `objective`;
  /// -infinity when no such entry exists.
  [[nodiscard]] double BestAccuracyAt(double objective) const;

 private:
  std::vector<Entry> entries_;  // objective ascending, accuracy ascending
};

/// 2-D frontier of a point cloud: indices of the Pareto-optimal
/// (objective minimized, accuracy maximized) points — those no other point
/// is no worse than in both coordinates and strictly better than in one —
/// sorted by descending accuracy, so one per accuracy level. Exact
/// duplicates keep the lowest input index. Infinities are ordinary values.
/// O(n log n); NaN CHECK-fails.
std::vector<std::size_t> SweepParetoFrontier(std::span<const double> objective,
                                             std::span<const double> accuracy);

/// 3-D frontier: indices of the points not dominated per Dominates3
/// (minimize time and cost, maximize accuracy), duplicates keeping the
/// first occurrence — index-set-identical to ParetoFrontier3
/// (core/pareto.h), the O(n²) oracle. Returned in input (ascending index)
/// order. O(n log n) time, O(frontier) extra memory beyond the sort
/// permutation; NaN anywhere in the input CHECK-fails.
///
/// Before the sort, a pre-pass drops the points that a move-to-front window
/// of up to 32 earlier surviving points covers (time <=, cost <=,
/// accuracy >=); on EnumerateFrontier's candidate streams that is 97-99% of
/// them. Such a point is either strictly dominated or an exact duplicate of
/// a lower index, so the contract above holds unchanged. Inputs it cannot
/// thin (anti-chains, shuffled frontiers) pay up to 32 window tests per
/// point on top of the sort.
std::vector<std::size_t> SweepParetoFrontier3(std::span<const double> time,
                                              std::span<const double> cost,
                                              std::span<const double> accuracy);

}  // namespace ccperf::core
