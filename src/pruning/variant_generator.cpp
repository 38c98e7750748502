#include "pruning/variant_generator.h"

#include <cmath>
#include <set>

#include "common/check.h"
#include "common/rng.h"

namespace ccperf::pruning {

std::vector<PrunePlan> CartesianSweep(
    const std::vector<std::string>& layers,
    const std::vector<std::vector<double>>& ratio_grids,
    PrunerFamily family) {
  CCPERF_CHECK(layers.size() == ratio_grids.size(),
               "one ratio grid per layer required");
  CCPERF_CHECK(!layers.empty(), "empty sweep");
  std::vector<PrunePlan> plans;
  std::vector<std::size_t> idx(layers.size(), 0);
  for (;;) {
    PrunePlan plan;
    plan.family = family;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      CCPERF_CHECK(!ratio_grids[i].empty(), "empty ratio grid for ", layers[i]);
      plan.layer_ratios[layers[i]] = ratio_grids[i][idx[i]];
    }
    plans.push_back(std::move(plan));
    // Odometer increment.
    std::size_t axis = 0;
    while (axis < layers.size() && ++idx[axis] == ratio_grids[axis].size()) {
      idx[axis] = 0;
      ++axis;
    }
    if (axis == layers.size()) break;
  }
  return plans;
}

std::vector<PrunePlan> RandomVariants(const std::vector<std::string>& layers,
                                      std::size_t count, double max_ratio,
                                      double step, Rng& rng,
                                      PrunerFamily family) {
  CCPERF_CHECK(!layers.empty(), "RandomVariants needs layers");
  CCPERF_CHECK(max_ratio >= 0.0 && max_ratio < 1.0, "max_ratio out of range");
  CCPERF_CHECK(step > 0.0, "step must be positive");
  // Round to the nearest level count: 0.6/0.1 is 5.999... in binary.
  const auto levels =
      static_cast<std::uint64_t>(std::llround(max_ratio / step)) + 1;
  std::vector<PrunePlan> plans;
  std::set<std::string> seen;
  // Always include the unpruned baseline as the first variant.
  PrunePlan baseline;
  baseline.family = family;
  for (const auto& layer : layers) baseline.layer_ratios[layer] = 0.0;
  seen.insert(baseline.Label());
  plans.push_back(std::move(baseline));

  std::size_t attempts = 0;
  const std::size_t max_attempts = count * 200 + 1000;
  while (plans.size() < count && attempts++ < max_attempts) {
    PrunePlan plan;
    plan.family = family;
    for (const auto& layer : layers) {
      const double r = static_cast<double>(rng.NextIndex(levels)) * step;
      plan.layer_ratios[layer] = std::min(r, max_ratio);
    }
    if (seen.insert(plan.Label()).second) plans.push_back(std::move(plan));
  }
  CCPERF_CHECK(plans.size() == count, "could not generate ", count,
               " distinct variants (grid too small?)");
  return plans;
}

}  // namespace ccperf::pruning
