#include "core/pareto_sweep.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace ccperf::core {

namespace {

void CheckNoNaN(std::span<const double> values, const char* axis) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    CCPERF_CHECK(!std::isnan(values[i]), "NaN ", axis, " objective at index ",
                 static_cast<unsigned long long>(i),
                 " — a NaN would silently win the frontier");
  }
}

// Pre-pass window of SweepParetoFrontier3. Inputs arrive in an order with
// locality (EnumerateFrontier offers the running frontier, then a block in
// flat-id order, whose neighbours share variant, type and count), so a few
// recent survivors cover most rows.
constexpr std::size_t kWindowRows = 32;

/// Indices of the rows that no earlier surviving row in a move-to-front
/// window covers (time <=, cost <= and accuracy >=), in input order. A
/// covering row moves to the front, and so does each new survivor.
std::vector<std::size_t> DropCoveredRows(std::span<const double> time,
                                         std::span<const double> cost,
                                         std::span<const double> accuracy) {
  struct Row {
    double time, cost, accuracy;
  };
  const std::size_t n = time.size();
  std::vector<std::size_t> survivors;
  survivors.reserve(n);
  std::array<Row, kWindowRows> window{};
  std::size_t filled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Row row{time[i], cost[i], accuracy[i]};
    std::size_t w = 0;
    while (w < filled &&
           !(window[w].time <= row.time && window[w].cost <= row.cost &&
             window[w].accuracy >= row.accuracy)) {
      ++w;
    }
    if (w < filled) {
      std::rotate(window.data(), window.data() + w, window.data() + w + 1);
      continue;
    }
    survivors.push_back(i);
    // The survivor enters at the front; a full window loses its last row.
    if (filled < kWindowRows) ++filled;
    std::rotate(window.data(), window.data() + filled - 1,
                window.data() + filled);
    window[0] = row;
  }
  return survivors;
}

}  // namespace

bool ParetoStaircase2::Insert(double objective, double accuracy,
                              std::uint64_t id) {
  CCPERF_CHECK(!std::isnan(objective) && !std::isnan(accuracy),
               "NaN objective offered to ParetoStaircase2");
  if (Covers(objective, accuracy)) return false;

  // Evict the entries the new point covers (objective >= and accuracy <=).
  // An entry with a smaller objective is never covered, so the run starts
  // at the first entry with objective >= `objective`; accuracy ascends
  // along the staircase, so the covered entries are a prefix of that suffix.
  const auto first = std::lower_bound(
      entries_.begin(), entries_.end(), objective,
      [](const Entry& e, double obj) { return e.objective < obj; });
  auto last = first;
  while (last != entries_.end() && last->accuracy <= accuracy) ++last;
  const auto pos = entries_.erase(first, last);
  entries_.insert(pos, Entry{objective, accuracy, id});
  return true;
}

bool ParetoStaircase2::Covers(double objective, double accuracy) const {
  return BestAccuracyAt(objective) >= accuracy;
}

double ParetoStaircase2::BestAccuracyAt(double objective) const {
  // Last entry with entry.objective <= objective; accuracy ascends with
  // objective, so that entry holds the best accuracy in range.
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), objective,
      [](double obj, const Entry& e) { return obj < e.objective; });
  if (it == entries_.begin()) return -std::numeric_limits<double>::infinity();
  return std::prev(it)->accuracy;
}

std::vector<std::size_t> SweepParetoFrontier(std::span<const double> objective,
                                             std::span<const double> accuracy) {
  CCPERF_CHECK(objective.size() == accuracy.size(),
               "objective/accuracy size mismatch");
  CheckNoNaN(objective, "objective");
  CheckNoNaN(accuracy, "accuracy");
  const std::size_t n = objective.size();
  if (n == 0) return {};

  // Accuracy descending, then objective ascending, then index ascending:
  // every point that could dominate a point, or duplicate it with a lower
  // index, comes before it.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (accuracy[a] != accuracy[b]) return accuracy[a] > accuracy[b];
    if (objective[a] != objective[b]) return objective[a] < objective[b];
    return a < b;
  });

  // So a point survives iff its objective is below every earlier one's,
  // which is the last kept point's; the first point always survives, even
  // at an infinite objective.
  std::vector<std::size_t> frontier;
  for (const std::size_t idx : order) {
    if (frontier.empty() || objective[idx] < objective[frontier.back()]) {
      frontier.push_back(idx);
    }
  }
  return frontier;
}

std::vector<std::size_t> SweepParetoFrontier3(
    std::span<const double> time, std::span<const double> cost,
    std::span<const double> accuracy) {
  CCPERF_CHECK(time.size() == cost.size() && cost.size() == accuracy.size(),
               "objective size mismatch");
  CheckNoNaN(time, "time");
  CheckNoNaN(cost, "cost");
  CheckNoNaN(accuracy, "accuracy");

  // A window row comes earlier in the input than the row it covers, so the
  // cover is a strict domination or an exact duplicate with a lower index:
  // keep-first drops the row either way. Covering is transitive, so whatever
  // the dropped row covers, its coverer covers too, and no other row's
  // outcome changes.
  std::vector<std::size_t> order = DropCoveredRows(time, cost, accuracy);

  // Sort by (time asc, cost asc, accuracy desc, index asc). In this order a
  // later point can never dominate an earlier one: domination requires
  // time <=, cost <= and accuracy >=, which against the sort order forces
  // equality in all three — an exact duplicate, which keeps the earlier
  // (lower-index) occurrence.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (time[a] != time[b]) return time[a] < time[b];
    if (cost[a] != cost[b]) return cost[a] < cost[b];
    if (accuracy[a] != accuracy[b]) return accuracy[a] > accuracy[b];
    return a < b;
  });

  // Sweep: every already-processed point has time <= (in sort order), so
  // point i is dominated iff some processed point also has cost <= and
  // accuracy >= — exactly a staircase coverage query over (cost, accuracy).
  // Equality in both staircase coordinates implies domination too: the
  // covering point was processed earlier, so it has strictly smaller time
  // or is an exact duplicate (then keep-first applies). Dropped points
  // never need to enter the staircase — whatever covered them covers
  // everything they would cover.
  ParetoStaircase2 staircase;
  std::vector<std::size_t> frontier;
  for (std::size_t idx : order) {
    if (staircase.Insert(cost[idx], accuracy[idx],
                         static_cast<std::uint64_t>(idx))) {
      frontier.push_back(idx);
    }
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

}  // namespace ccperf::core
