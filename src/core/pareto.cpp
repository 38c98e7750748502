#include "core/pareto.h"

#include <cmath>

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

}  // namespace

bool Dominates3(double time_a, double cost_a, double acc_a, double time_b,
                double cost_b, double acc_b) {
  CCPERF_CHECK(!std::isnan(time_a) && !std::isnan(cost_a) &&
                   !std::isnan(acc_a) && !std::isnan(time_b) &&
                   !std::isnan(cost_b) && !std::isnan(acc_b),
               "NaN objective in dominance comparison");
  const bool no_worse =
      time_a <= time_b && cost_a <= cost_b && acc_a >= acc_b;
  const bool strictly_better =
      time_a < time_b || cost_a < cost_b || acc_a > acc_b;
  return no_worse && strictly_better;
}

std::vector<std::size_t> ParetoFrontier3(std::span<const double> time,
                                         std::span<const double> cost,
                                         std::span<const double> accuracy) {
  CCPERF_CHECK(time.size() == cost.size() && cost.size() == accuracy.size(),
               "objective size mismatch");
  CheckNoNaN(time, "time");
  CheckNoNaN(cost, "cost");
  CheckNoNaN(accuracy, "accuracy");
  const std::size_t n = time.size();
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < n; ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < n && !dominated; ++j) {
      if (j == i) continue;
      if (Dominates3(time[j], cost[j], accuracy[j], time[i], cost[i],
                     accuracy[i])) {
        dominated = true;
      } else if (j < i && time[j] == time[i] && cost[j] == cost[i] &&
                 accuracy[j] == accuracy[i]) {
        dominated = true;  // duplicate: keep the first occurrence only
      }
    }
    if (!dominated) frontier.push_back(i);
  }
  return frontier;
}

}  // namespace ccperf::core
